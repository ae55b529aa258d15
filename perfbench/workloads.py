"""The four benchmark workloads and the configs generated from them.

Every workload uses p = 2, r = 1 on a unit box, so a family member's L_p
budget reduces to an integer condition on its magnitude indices j_i:
mu * (gamma * j_i / a)^2 summed over cells is at most 1 exactly when
sum j_i^2 <= cells * a^2 / gamma^2.  ``expected_count`` uses that to count the
family independently of the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

DEFAULT_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "verify" or "build"
    why: str
    dim: int
    kernel: tuple  # (key, value) lines of the [kernel] section
    out_dim: int  # n, the kernel's input dimension (sphere-net dimension)
    gamma: float
    Delta: float
    delta: float
    sigma: float
    samples: int
    family_mode: str = "enumerate"
    family_samples: int = 500
    quad_nodes: int = 3
    # reduced parameters used by the benchmark's own tests
    tiny: dict = field(default_factory=dict)

    @property
    def cells(self) -> int:
        per_axis = max(1, math.ceil(math.sqrt(self.dim) / self.Delta))
        return per_axis**self.dim

    @property
    def levels(self) -> int:
        """a, the number of magnitude steps above zero."""
        return max(1, math.ceil(self.gamma / self.delta * (1.0 - 1e-12)))

    @property
    def budget(self) -> int:
        """B with sum j_i^2 <= B; exact for the integer-valued configs here."""
        b = self.cells * self.levels**2 / self.gamma**2
        if abs(b - round(b)) > 1e-9:
            raise ValueError(f"{self.name}: budget {b} is not an integer")
        return round(b)

    @property
    def net_size(self) -> int | None:
        """Size of the sigma-net; None where the greedy (seeded) net is used."""
        if self.out_dim == 1:
            return 2
        if self.out_dim == 2:
            return math.ceil(math.pi / math.asin(self.sigma / 2.0))
        return None

    @property
    def nodes(self) -> int:
        return self.cells * self.quad_nodes**self.dim


_B102K_KERNEL = (("name", "block_diag"),
                 ("components", "gaussian:beta=1.0|constant:value=0.5"))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="enum-b102k", command="verify",
            why="ROADMAP baseline: 102,621 enumerated members; reverse and "
                "forward distance plus per-member apply dominate, and "
                "per-member objects set the peak RSS",
            dim=2, kernel=_B102K_KERNEL, out_dim=2,
            gamma=2.0, Delta=1.0, delta=0.5, sigma=0.9, samples=200,
            tiny={"delta": 1.0, "sigma": 1.9, "samples": 20},
        ),
        Workload(
            name="sample-wide", command="verify",
            why="1-D, 12 cells x 11 levels, 7.9e14 members sampled: the "
                "count and sample recursions dominate, distance and apply "
                "are small",
            dim=1, kernel=(("name", "gaussian"), ("beta", "1.0")), out_dim=1,
            gamma=2.0, Delta=0.0834, delta=0.2, sigma=1.0, samples=200,
            family_mode="sample", family_samples=2000,
            tiny={"Delta": 0.34, "delta": 0.5, "samples": 20,
                  "family_samples": 50},
        ),
        Workload(
            name="steps-3d", command="verify",
            why="3-D cube, 3x3 kernel, greedy sphere net, 216 nodes: "
                "verify_steps and node-sampled applies dominate, the family "
                "is small",
            dim=3,
            kernel=(("name", "block_diag"),
                    ("components", "gaussian:beta=1.0|gaussian:beta=2.0|"
                                   "constant:value=0.5")),
            out_dim=3,
            # sigma = 1.4 gives a 5- or a 6-point greedy net depending on the
            # seed, which made run_s bimodal across seeds; sigma = 1.2 gives
            # 6 points on every seed tried (0-39) and, at seed 7, the same
            # 1,057-member family as sigma = 1.4
            gamma=2.0, Delta=1.0, delta=2.0, sigma=1.2, samples=400,
            tiny={"samples": 10, "quad_nodes": 2},
        ),
        Workload(
            name="build-30k", command="build",
            why="opnet build on the baseline with sigma=1.2: 29,781 members "
                "written as about 42 MB of CSV, so the write path is "
                "measured",
            dim=2, kernel=_B102K_KERNEL, out_dim=2,
            gamma=2.0, Delta=1.0, delta=0.5, sigma=1.2, samples=200,
            tiny={"delta": 1.0, "sigma": 1.9},
        ),
    )
}


def sized(workload: Workload, tiny: bool) -> Workload:
    return replace(workload, **workload.tiny) if tiny else workload


def make_config(workload: Workload, seed: int) -> str:
    """The INI config the CLI receives; a function of the workload and seed only."""
    lo = " ".join(["0.0"] * workload.dim)
    hi = " ".join(["1.0"] * workload.dim)
    lines = ["[domain]", f"dim = {workload.dim}", f"lower = {lo}",
             f"upper = {hi}", "", "[kernel]"]
    lines += [f"{k} = {v}" for k, v in workload.kernel]
    lines += [
        "", "[parameters]", "p = 2", "r = 1",
        f"gamma = {workload.gamma!r}", f"Delta = {workload.Delta!r}",
        f"delta = {workload.delta!r}", f"sigma = {workload.sigma!r}",
        "", "[run]", f"seed = {int(seed)}", f"samples = {workload.samples}",
        f"quad_nodes = {workload.quad_nodes}",
        f"family_mode = {workload.family_mode}",
        f"family_samples = {workload.family_samples}",
    ]
    return "\n".join(lines) + "\n"


def expected_count(workload: Workload, net_size: int) -> int:
    """Members with sum j_i^2 <= B; each nonzero cell takes net_size directions."""
    budget = workload.budget
    ways = {0: 1}  # used budget -> weighted number of prefixes
    for _ in range(workload.cells):
        nxt: dict[int, int] = {}
        for used, n in ways.items():
            for j in range(workload.levels + 1):
                u = used + j * j
                if u > budget:
                    break
                nxt[u] = nxt.get(u, 0) + n * (net_size if j else 1)
        ways = nxt
    return sum(ways.values())


def net_size_for_count(workload: Workload, count: int) -> int | None:
    """The net size that explains `count`, or None if no size does."""
    if workload.net_size is not None:
        ok = expected_count(workload, workload.net_size) == count
        return workload.net_size if ok else None
    # the count grows with the net size: bracket, then bisect
    hi = 1
    while expected_count(workload, hi) < count:
        if hi > 1 << 20:
            return None
        hi *= 2
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if expected_count(workload, mid) < count:
            lo = mid + 1
        else:
            hi = mid
    return lo if expected_count(workload, lo) == count else None
