"""Centralized scheduling: Fair, SRPT and Hopper policies on one master.

This mirrors the paper's Hadoop-YARN / Spark prototypes (§6.2): a central
resource manager assigns slots to jobs; per-job speculation algorithms
(LATE/Mantri/GRASS) propose duplicate copies; the policy decides who gets
slots. Baselines implement the §3 strawmen: best-effort and budgeted
speculation.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "policies": ("CentralizedPolicy", "FairPolicy", "SRPTPolicy", "HopperPolicy"),
        "config": ("CentralizedConfig", "SpeculationMode"),
        "simulator": ("CentralizedSimulator",),
    },
)
