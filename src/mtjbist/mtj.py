"""Behavioral model of perpendicular-anisotropy MTJ storage cells.

A cell stores one bit as a magnetization state: parallel (low resistance,
logic 0) or anti-parallel (high resistance, logic 1). Writing the opposite
state takes a finite switching time that grows with the free-layer thickness
``tm``, in units of the nominal thickness 1.0. A fabrication-time attacker
who thickens the free layer slows the cell down without changing its logic
function, so the tampering is invisible at the nominal clock and only shows
up as a transition-delay fault when the cell is exercised faster.

The delay law is affine in ``tm`` over the modeled thickness range, with a
separate window per transition direction. Out-of-range thicknesses clamp to
the window edges. Cells are immutable values; apply_bit and sense return
updated copies instead of mutating. MtjCell is the one check of a cell's
thickness; load_array and bist.inject_attack put their source before its error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .textio import positive_finite, read_text, records, reworded, split_list, write_text


@dataclass(frozen=True)
class MtjDelayModel:
    """Affine switching-delay model over a free-layer thickness range.

    tm_min / tm_max bound the modeled thickness (units of the nominal
    thickness 1.0). delay01_* is the 0 -> 1 switching window in ns, delay10_*
    the 1 -> 0 window. tm_tolerance is the acceptable |tm_actual - 1.0|
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
        # the chained comparisons are False for nan
        if not -float("inf") < self.tm_min < self.tm_max < float("inf"):
            raise ValueError("tm_min must be < tm_max, both finite")
        if not (0 <= self.delay01_min <= self.delay01_max < float("inf")
                and 0 <= self.delay10_min <= self.delay10_max < float("inf")):
            raise ValueError("delay windows must be finite, non-negative and ordered min <= max")
        if not 0 <= self.tm_tolerance < float("inf"):
            raise ValueError("tm_tolerance must be non-negative and finite")


@dataclass(frozen=True)
class PendingTransition:
    """An in-flight write: the cell reaches ``target`` at ``completes_at`` ns."""

    target: int
    completes_at: float


@dataclass(frozen=True)
class MtjCell:
    """One storage cell: free-layer thickness plus current state.

    tm_actual is the thickness in units of the nominal 1.0, positive and
    finite. state is the logic level the magnetization stores: 0 is parallel
    (low resistance), 1 is anti-parallel (high resistance).
    """

    tm_actual: float = 1.0
    state: int = 0
    pending: PendingTransition | None = None

    def __post_init__(self):
        positive_finite("tm_actual", self.tm_actual)
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
    """True when tm_actual deviates from the nominal 1.0 beyond the tolerance.

    The boundary is accepting: a deviation of exactly tm_tolerance is still
    considered healthy.
    """
    return abs(cell.tm_actual - 1.0) > model.tm_tolerance


def nominal_array(n_cells: int) -> list[MtjCell]:
    """A fresh array of identical healthy cells, all parallel (0)."""
    if n_cells <= 0:
        raise ValueError("n_cells must be positive")
    return [MtjCell() for _ in range(n_cells)]


def load_array(path) -> list[MtjCell]:
    """Read an array description from a plain-text table.

    One row per cell, columns ``index tm_actual`` (whitespace or comma
    separated, ``#`` comments allowed). Indices must form 0..n-1 exactly;
    ordering in the file is free.
    """
    rows: dict[int, MtjCell] = {}
    for ln, text in records(read_text(path).split("\n")):
        parts = split_list(text)
        if len(parts) != 2:
            raise ValueError(f"{path}:{ln}: expected 'index tm_actual', got {text!r}")
        try:
            idx, tm = int(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"{path}:{ln}: expected an integer index and a number, got {text!r}") from None
        cell = reworded(f"{path}:{ln}", MtjCell, tm_actual=tm)
        if idx in rows:
            raise ValueError(f"{path}:{ln}: duplicate cell index {idx}")
        rows[idx] = cell
    if not rows:
        raise ValueError(f"{path}: no cells")
    if sorted(rows) != list(range(len(rows))):
        raise ValueError(f"{path}: cell indices must be 0..{len(rows) - 1} without gaps")
    return [rows[i] for i in range(len(rows))]


def save_array(path, cells: list[MtjCell]) -> None:
    """Write the table format read by load_array."""
    write_text(path, "# index tm_actual\n" + "".join(f"{i} {cell.tm_actual:.10g}\n" for i, cell in enumerate(cells)))
