"""Area, power and energy models for the baseline and TensorDash designs."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AreaModel": "repro.energy.area_model",
    "AreaBreakdown": "repro.energy.area_model",
    "PowerModel": "repro.energy.power_model",
    "PowerBreakdown": "repro.energy.power_model",
    "EnergyPerAccess": "repro.energy.energy_model",
    "EnergyAccountant": "repro.energy.accounting",
    "EnergyBreakdown": "repro.energy.accounting",
    "EfficiencyReport": "repro.energy.accounting",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
