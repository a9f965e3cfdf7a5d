"""Behavioral model of perpendicular-anisotropy MTJ storage cells.

A cell stores one bit as a magnetization state: parallel (low resistance,
logic 0) or anti-parallel (high resistance, logic 1). Writing the opposite
state takes a finite switching time that grows with the free-layer thickness
``tm``. A fabrication-time attacker who thickens the free layer slows the
cell down without changing its logic function, so the tampering is invisible
at the nominal clock and only shows up as a transition-delay fault when the
cell is exercised faster.

The delay law is affine in ``tm`` over the modeled thickness range, with a
separate window per transition direction. Out-of-range thicknesses clamp to
the window edges. Cells are immutable values; apply_bit and sense return
updated copies instead of mutating.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum


class MtjLogicState(IntEnum):
    """Magnetization states and their fixed logic mapping."""

    PARALLEL = 0        # low resistance
    ANTIPARALLEL = 1    # high resistance


@dataclass(frozen=True)
class MtjDelayModel:
    """Affine switching-delay model over a free-layer thickness range.

    tm_min / tm_max bound the modeled thickness (arbitrary units, nominal
    1.0). delay01_* is the 0 -> 1 switching window in ns, delay10_* the
    1 -> 0 window. tm_tolerance is the acceptable |tm_actual - tm_nominal|
    before a cell counts as tampered.
    """

    tm_min: float = 0.8
    tm_max: float = 1.3
    delay01_min: float = 0.0
    delay01_max: float = 2.26
    delay10_min: float = 0.0
    delay10_max: float = 1.35
    tm_tolerance: float = 0.10

    def __post_init__(self):
        if not self.tm_min < self.tm_max:
            raise ValueError("tm_min must be < tm_max")
        if self.delay01_min > self.delay01_max or self.delay10_min > self.delay10_max:
            raise ValueError("delay windows must be ordered min <= max")
        if self.delay01_min < 0 or self.delay10_min < 0:
            raise ValueError("delays must be non-negative")
        if self.tm_tolerance < 0:
            raise ValueError("tm_tolerance must be non-negative")


@dataclass(frozen=True)
class PendingTransition:
    """An in-flight write: the cell reaches ``target`` at ``completes_at`` ns."""

    target: int
    completes_at: float


@dataclass(frozen=True)
class MtjCell:
    """One storage cell: nominal and actual thickness plus current state."""

    tm_nominal: float = 1.0
    tm_actual: float = 1.0
    state: int = MtjLogicState.PARALLEL
    pending: PendingTransition | None = None

    def __post_init__(self):
        if self.tm_nominal <= 0 or self.tm_actual <= 0:
            raise ValueError("thicknesses must be positive")
        if self.state not in (0, 1):
            raise ValueError(f"state must be 0 or 1, got {self.state!r}")


def switching_delay(model: MtjDelayModel, tm: float, transition: tuple[int, int]) -> float:
    """Switching delay in ns for a (from_state, to_state) transition.

    Affine in tm: the delay runs from the window minimum at tm_min to the
    window maximum at tm_max. tm outside [tm_min, tm_max] clamps. A
    non-transition (0, 0) or (1, 1) takes zero time.
    """
    frm, to = transition
    if frm not in (0, 1) or to not in (0, 1):
        raise ValueError(f"transition bits must be 0 or 1, got {transition!r}")
    if frm == to:
        return 0.0
    if to == 1:
        lo, hi = model.delay01_min, model.delay01_max
    else:
        lo, hi = model.delay10_min, model.delay10_max
    tm_c = min(max(tm, model.tm_min), model.tm_max)
    frac = (tm_c - model.tm_min) / (model.tm_max - model.tm_min)
    return lo + (hi - lo) * frac


def apply_bit(cell: MtjCell, bit: int, t_write: float, model: MtjDelayModel) -> MtjCell:
    """Launch a write of ``bit`` at time ``t_write`` (ns).

    Writing the current state is a no-op. Writing the opposite state
    schedules a pending transition that completes after the cell's switching
    delay. Writing while a transition is still pending is a harness
    scheduling bug and raises.
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    if cell.pending is not None:
        raise RuntimeError(
            f"write at t={t_write} ns while a transition is pending "
            f"(completes at {cell.pending.completes_at} ns)"
        )
    if bit == cell.state:
        return cell
    delay = switching_delay(model, cell.tm_actual, (int(cell.state), bit))
    return replace(cell, pending=PendingTransition(target=bit, completes_at=t_write + delay))


def sense(cell: MtjCell, t_sample: float) -> tuple[int, MtjCell]:
    """Read the cell at time ``t_sample`` (ns).

    Returns (level, updated_cell). While a transition is pending and
    t_sample < completes_at the old state is read back (this is the
    transition-delay fault). Once t_sample >= completes_at the target state
    is read and committed, clearing the pending transition.
    """
    if cell.pending is None:
        return int(cell.state), cell
    if t_sample >= cell.pending.completes_at:
        done = replace(cell, state=cell.pending.target, pending=None)
        return int(done.state), done
    return int(cell.state), cell


def is_malicious(cell: MtjCell, model: MtjDelayModel) -> bool:
    """True when the actual thickness deviates beyond the model tolerance.

    The boundary is accepting: a deviation of exactly tm_tolerance is still
    considered healthy.
    """
    return abs(cell.tm_actual - cell.tm_nominal) > model.tm_tolerance


def nominal_array(n_cells: int, tm_nominal: float = 1.0, state: int = 0) -> list[MtjCell]:
    """A fresh array of identical healthy cells."""
    if n_cells <= 0:
        raise ValueError("n_cells must be positive")
    return [MtjCell(tm_nominal=tm_nominal, tm_actual=tm_nominal, state=state) for _ in range(n_cells)]


def load_array(path, tm_nominal: float = 1.0, state: int = 0) -> list[MtjCell]:
    """Read an array description from a plain-text table.

    One row per cell, columns ``index tm_actual`` (whitespace or comma
    separated, ``#`` comments allowed). Indices must form 0..n-1 exactly;
    ordering in the file is free.
    """
    rows: dict[int, float] = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{ln}: expected 'index tm_actual', got {raw!r}")
            try:
                idx, tm = int(parts[0]), float(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{ln}: expected an integer index and a number, got {raw!r}") from None
            # the chained comparison is False for nan
            if not 0 < tm < float("inf"):
                raise ValueError(f"{path}:{ln}: tm_actual must be positive and finite, got {parts[1]!r}")
            if idx in rows:
                raise ValueError(f"{path}:{ln}: duplicate cell index {idx}")
            rows[idx] = tm
    if not rows:
        raise ValueError(f"{path}: no cells")
    if sorted(rows) != list(range(len(rows))):
        raise ValueError(f"{path}: cell indices must be 0..{len(rows) - 1} without gaps")
    return [
        MtjCell(tm_nominal=tm_nominal, tm_actual=rows[i], state=state)
        for i in range(len(rows))
    ]


def save_array(path, cells: list[MtjCell]) -> None:
    """Write the table format read by load_array."""
    with open(path, "w") as fh:
        fh.write("# index tm_actual\n")
        for i, cell in enumerate(cells):
            fh.write(f"{i} {cell.tm_actual:.10g}\n")
