"""The measured-quality record of one accelerator configuration
(the input of ``repro report``)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..opt import PassResult
from ..rtl import SynthesisReport
from ..sim import SimStats


@dataclass
class RunResult:
    """One accelerator configuration's measured quality."""

    workload: str
    config: str
    cycles: int
    fpga_mhz: float
    stats: SimStats
    synth: SynthesisReport
    pass_log: List[PassResult] = field(default_factory=list)
    variant: str = "base"
    #: The optimized circuit itself (for counter readout / reporting).
    circuit: Optional[object] = None

    @property
    def time_us(self) -> float:
        """Wall-clock execution estimate on the FPGA backend."""
        return self.cycles / self.fpga_mhz

    def __repr__(self) -> str:
        return (f"RunResult({self.workload}/{self.config}: "
                f"{self.cycles} cyc @ {self.fpga_mhz:.0f} MHz = "
                f"{self.time_us:.2f} us)")
