"""Simulation laboratory for data-poisoning attacks on LDP range-query protocols.

Subpackages / modules:
    query          -- the range query shared by both protocols.
    freq_oracles   -- OUE and OLH frequency oracles plus the universal hash family.
    postprocess    -- Norm-Sub, tree parent/child consistency, cross-grid consistency.
    tree_protocol  -- adaptive interval-tree range-query protocol (OUE based).
    grid_protocol  -- 1-D/2-D grid range-query protocol (OLH based).
    attacks        -- report-level poisoning attacks for both protocols.
    defenses       -- hypothesis-test detectors (ones-count interval, max hash load).
    harness        -- datasets, query generation, metrics, experiment driver.
    cli            -- the ``ldplab`` command line (run, sweep).
"""

__version__ = "0.1.0"
