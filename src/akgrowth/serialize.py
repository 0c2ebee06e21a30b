"""Deterministic JSON and CSV writers.

Floats are printed with 17 significant digits everywhere, keys keep their
insertion order, and no timestamps are emitted, so identical inputs produce
byte-identical files.

``format_float`` is the one per-value formatter: ``'%.17g'``, with NaN and
the infinities spelled ``NaN``, ``Infinity`` and ``-Infinity``.  It is used
only by the JSON writer and for the CSV cells outside the kernel's range.
The CSV writers (``basis.csv``, ``trajectory.csv``, ``deviations.csv`` and
``sweep.csv``) print whole arrays through a NumPy kernel that writes the
bytes of ``'%.17g' % x`` exactly for every x with 1e-4 <= |x| < 1e17, the
numbers ``%g`` prints in fixed notation:

* The 17 digits are N = round(|x| * 10^(16 - E)), rounded half to even,
  with E the decimal exponent, 10^16 <= N < 10^17.  For E in [-4, 16] the
  scale 10^(16 - E) is an exact double (10^k is exact for k <= 22), so
  Dekker's product gives |x| * 10^(16 - E) exactly as hi + lo.  E comes
  from log10 and is corrected by exact comparisons of hi + lo with 10^16
  and 10^17; N is hi plus lo rounded half to even, exact in int64.
* The digits go into the bytes of uint64 words, a cell of 24 bytes per
  number, and a per-E layout places the sign, the point and the leading
  zeros; trailing zeros, and a point with no digits after it, become NULs.

The writers lay out the cells of a block of lines side by side, with the
commas and newlines, and delete the NULs from its bytes; sweep.csv's flags
are fixed cells, and its empty cells all NULs.  Zeros, the numbers outside
that range, NaN and the infinities go through ``format_float`` one at a
time.  Blocks hold about 8k numbers (sweep.csv is one block), so no array
writer holds a whole file in memory.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .closed_loop import Trajectory
from .spectral import SpectralBasis
from .stability import StabilityReport, _log_slope


def format_float(x: float) -> str:
    """17-significant-digit decimal form (round-trips float64 exactly)."""
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


# ------------------------------------------------------------ float kernel
# A cell is _WIDTH bytes holding one number's text, with NULs anywhere in
# it that `_lines` deletes.  The kernel builds a cell as three
# little-endian uint64 words: byte i of the cell is byte i % 8 of word
# i // 8, so a shift of the words moves the text.
_WIDTH = 24
# values that the writers put through the kernel per block of lines
_BLOCK_CELLS = 8192
# the kernel's range: every x with 1e-4 <= |x| < 1e17 prints in fixed notation
_FIXED_MIN, _FIXED_MAX = 1e-4, 1e17
# 10^k is an exact double for k <= 22; the kernel needs k = 16 - E <= 20
_POW10 = np.array([float(10**k) for k in range(21)])


def _split(a):
    """Veltkamp's split of doubles into 26-bit halves: a = hi + lo exactly."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _word_table(texts) -> tuple[np.ndarray, ...]:
    """One table per word of a cell, with a row per text, the cell's bytes."""
    rows = [np.frombuffer(t.ljust(_WIDTH, b"\0"), dtype="<u8") for t in texts]
    return tuple(np.array(rows).T.copy())


# The layout of the fixed notation, one row per decimal exponent E in
# [-4, 16] (row E + 4) of the 17 digits d0..d16.  Byte 0 of a cell is the
# sign.  E >= 0 prints d0..dE from byte 1, then '.' and d(E+1)..d16; E < 0
# prints '0.', -E - 1 zeros and d0..d16.  _LOW masks the digits before the
# point, which move one byte; the others move _SHIFT bits.  _POINT holds
# the point and the leading zeros.  The row of E = 16 has no point, and
# serves every number whose fraction is all zeros.
_EXPONENTS = range(-4, 17)
_LOW = _word_table(b"\xff" * (e + 1) for e in _EXPONENTS)
_SHIFT = np.array([8 * (2 - min(e, 0)) for e in _EXPONENTS], dtype=np.uint64)
_POINT = _word_table(
    b"\x000." + b"0" * (-e - 1) if e < 0 else b"\0" * (e + 2) + b"." if e < 16 else b""
    for e in _EXPONENTS
)
# row k: ASCII '0' on the digit bytes 0..k, the ones that are printed
_KEEP = _word_table(b"0" * (k + 1) for k in range(17))


def _digit_bytes(v: np.ndarray) -> np.ndarray:
    """Values below 10^8 as words whose bytes are their 8 decimal digits,
    most significant first (digit values, not characters).

    Splits each value into 4-digit halves by division, then divides all
    lanes of a word at once by multiply-and-shift: by 100 in the two 32-bit
    lanes (x * 10486 >> 20 for x < 10^4), then by 10 in the four 16-bit
    lanes (x * 103 >> 10 for x < 100).  No lane spills into the next.
    """
    high = v // 10000
    x = high | ((v - high * 10000) << 32)
    high = ((x * 10486) >> 20) & 0x0000007F0000007F
    x = high | ((x - high * 100) << 16)
    high = ((x * 103) >> 10) & 0x000F000F000F000F
    return high | ((x - high * 10) << 8)


def _or_shifted(cells: np.ndarray, words, bits) -> None:
    """ORs the three words, shifted left by 0 < bits < 64 as one 192-bit
    number, into the (m, 3) ``cells``."""
    back = 64 - np.asarray(bits, dtype=np.uint64)
    w0, w1, w2 = words
    cells[:, 0] |= w0 << bits
    cells[:, 1] |= (w1 << bits) | (w0 >> back)
    cells[:, 2] |= (w2 << bits) | (w1 >> back)


def _top_byte(w: np.ndarray) -> np.ndarray:
    """The index of the highest nonzero byte of each nonzero word of digit
    values.  The float conversion may round, but a top byte of at most 9
    keeps it off the next byte."""
    return (np.frexp(w.astype(np.float64))[1] - 1) >> 3


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10^(16 - e) as the exact sum hi + lo (Dekker's product)."""
    k = 16 - e
    hi = a * _POW10[k]
    a_hi, a_lo = _split(a)
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return hi, lo


def _significand(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The decimal exponent E and the 17-digit significand N of every a in
    [1e-4, 1e17): N = a * 10^(16 - E) rounded half to even, 10^16 <= N < 10^17."""
    # E from log10, which can be off by one next to a power of ten
    e = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    hi, lo = _scaled(a, e)
    # v = hi + lo should lie in [10^16, 10^17).  The signs of v - 10^16 and
    # v - 10^17 are exact: hi - 10^k is exact when hi is within a factor of
    # two of 10^k, and farther away lo cannot change its sign
    below = (hi - 1e16) + lo < 0
    above = (hi - 1e17) + lo >= 0
    if below.any() or above.any():
        e += above
        e -= below
        hi, lo = _scaled(a, e)
    # hi >= 10^16 > 2^53 is an even integer, so rounding lo half to even
    # rounds hi + lo half to even.  N < 10^17: no double in the range lies
    # within half a unit of the 17th digit below a power of ten, so rounding
    # never carries into an 18th digit
    return e, (hi.astype(np.int64) + np.rint(lo).astype(np.int64)).view(np.uint64)


def _digits(n: np.ndarray) -> list[np.ndarray]:
    """The 17 digits of every n as the words of a cell's bytes 0..16: d0..d7,
    d8..d15 and d16 (digit values, not characters)."""
    q = n // 10
    top = q // 10**8
    return [_digit_bytes(top), _digit_bytes(q - top * 10**8), n - q * 10]


def _fixed_cells(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` of every v in the 1-D ``x``, all in the kernel's range,
    as rows of three words."""
    e, n = _significand(np.abs(x))
    digits = _digits(n)
    # the last nonzero digit; the printed ones run to it or to the point
    last = np.where(digits[2] != 0, 16,
                    np.where(digits[1] != 0, 8 + _top_byte(digits[1]),
                             _top_byte(digits[0])))
    kept = np.maximum(last, e)
    for w, t in zip(digits, _KEEP):
        w |= t[kept]  # printed digits become characters, the rest stay NUL

    row = e + 4
    point = np.where(last > e, row, len(_EXPONENTS) - 1)
    cells = np.empty((x.size, 3), "<u8")
    for i in range(3):
        cells[:, i] = _POINT[i][point]
    cells[:, 0] |= np.where(x < 0, np.uint64(ord("-")), np.uint64(0))
    low = [t[row] for t in _LOW]
    _or_shifted(cells, [w & m for w, m in zip(digits, low)], 8)
    _or_shifted(cells, [w & ~m for w, m in zip(digits, low)], _SHIFT[row])
    return cells


def _cells(values: np.ndarray) -> np.ndarray:
    """``format_float(v)`` of every entry of ``values`` as a cell: a uint8
    array of shape ``values.shape + (_WIDTH,)``, the text NUL-padded.

    Cells in the kernel's range come from ``_fixed_cells``; zeros, NaN, the
    infinities and the rest of the finite range from ``format_float``.
    """
    x = np.asarray(values, dtype=np.float64)
    flat = x.reshape(-1)
    a = np.abs(flat)
    fixed = (a >= _FIXED_MIN) & (a < _FIXED_MAX)
    # the kernel formats a stand-in 1.0 for the others, then they are replaced
    cells = _fixed_cells(np.where(fixed, flat, 1.0))
    if not fixed.all():
        others = [format_float(v) for v in flat[~fixed].tolist()]
        cells[~fixed] = np.array(others, dtype=f"S{_WIDTH}").view("<u8").reshape(-1, 3)
    return cells.view(np.uint8).reshape(x.shape + (_WIDTH,))


def _lines(*columns: np.ndarray) -> bytes:
    """CSV text of the rows whose cells are ``columns``, each a
    (rows, _WIDTH) or (rows, k, _WIDTH) array from ``_cells``."""
    rows = len(columns[0])
    columns = [c.reshape(rows, -1, _WIDTH) for c in columns]
    block = np.empty((rows, sum(c.shape[1] for c in columns), _WIDTH + 1), np.uint8)
    block[:, :, _WIDTH] = ord(",")
    block[:, -1, _WIDTH] = ord("\n")
    at = 0
    for c in columns:
        block[:, at:at + c.shape[1], :_WIDTH] = c
        at += c.shape[1]
    return block.tobytes().translate(None, b"\0")


def _emit(obj, level: int, pieces: list[str]) -> None:
    pad = "  " * level
    inner_pad = "  " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            pieces.append(f"{inner_pad}{json.dumps(str(key))}: ")
            _emit(value, level + 1, pieces)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(np.asarray(obj).tolist()) if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, value in enumerate(seq):
            pieces.append(inner_pad)
            _emit(value, level + 1, pieces)
            pieces.append(",\n" if i < len(seq) - 1 else "\n")
        pieces.append(pad + "]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        pieces.append("true" if obj else "false")
    elif obj is None:
        pieces.append("null")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(format_float(obj))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj) -> str:
    """JSON text indented by two spaces per level, with a final newline."""
    pieces: list[str] = []
    _emit(obj, 0, pieces)
    pieces.append("\n")
    return "".join(pieces)


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(dumps_json(obj))


# ------------------------------------------------------------------ CSV
def basis_summary(basis: SpectralBasis) -> dict:
    """JSON-ready spectral summary: eigenvalues and the positive eigenfunction."""
    return {
        "eigenvalues": basis.eigenvalues,
        "b0": basis.b0.values,
    }


def write_basis_csv(path: str | Path, basis: SpectralBasis) -> None:
    """Full basis, one column per eigenfunction, streamed in blocks of rows."""
    n = basis.grid.n_points
    theta = _cells(basis.grid.nodes)
    rows = max(1, _BLOCK_CELLS // (n + 1))
    with open(path, "wb") as handle:
        handle.write(("theta," + ",".join(f"b{k}" for k in range(n)) + "\n").encode())
        for start in range(0, n, rows):
            block = slice(start, start + rows)
            handle.write(_lines(theta[block], _cells(basis.vectors[block])))


def write_trajectory_csv(path: str | Path, traj: Trajectory) -> None:
    """Long-format trajectory, one row per (time, node), streamed in blocks of
    time rows through one buffer that holds the separators and theta once."""
    n = traj.grid.n_points
    times = _cells(traj.times)
    steps = max(1, _BLOCK_CELLS // (2 * n))
    buffer = bytearray(steps * n * 4 * (_WIDTH + 1))
    block = np.frombuffer(buffer, np.uint8).reshape(steps, n, 4, _WIDTH + 1)
    block[..., _WIDTH] = ord(",")
    block[..., 3, _WIDTH] = ord("\n")
    block[:, :, 1, :_WIDTH] = _cells(traj.grid.nodes)
    with open(path, "wb") as handle:
        handle.write(b"t,theta,K,K_detrended\n")
        for start in range(0, len(times), steps):
            rows = slice(start, start + steps)
            k = len(times[rows])
            block[:k, :, 0, :_WIDTH] = times[rows, None]  # each time over its n rows
            block[:k, :, 2:, :_WIDTH] = _cells(np.stack((traj.states[rows],
                                                         traj.detrended[rows]), axis=-1))
            text = buffer if k == steps else buffer[:block[:k].size]  # a short last block
            handle.write(text.translate(None, b"\0"))


def trajectory_summary(traj: Trajectory, basis: SpectralBasis) -> dict:
    """Pairings <K(t), b0> per sample plus the fitted growth exponent."""
    pairings = basis.grid.weight * (traj.states @ basis.b0.values)
    fitted = _log_slope(traj.times, pairings) if np.all(pairings > 0) else float("nan")
    return {
        "times": traj.times,
        "inner_b0": pairings,
        "fitted_growth_rate": fitted,
    }


def stability_summary(report: StabilityReport) -> dict:
    return {
        "M": report.M,
        "rate": report.rate,
        "fitted_rate": report.fitted_rate,
        "bound_satisfied": report.bound_satisfied,
        "max_bound_violation": report.max_bound_violation,
        "admissible": report.admissible,
        "admissibility_condition": report.admissibility_condition,
        "dominance_ok": report.dominance_ok,
        "grid_points": report.grid_points,
        "steady_state": report.steady_state.values,
    }


def deviation_csv(report: StabilityReport) -> str:
    columns = (report.times, report.deviations, report.bounds)
    return "t,deviation,bound\n" + _lines(*map(_cells, columns)).decode()


def write_deviation_csv(path: str | Path, report: StabilityReport) -> None:
    Path(path).write_text(deviation_csv(report))


_SWEEP_COLUMNS = ("rho", "gamma", "sigma", "lambda0", "lambda1",
                  "feasible", "g", "alpha", "M", "rate", "dominant")
_SWEEP_NUMBERS = [c for c in _SWEEP_COLUMNS if c not in ("feasible", "dominant")]
_FLAG_TEXT = {None: b"", True: b"true", False: b"false"}


def write_sweep_csv(path: str | Path, rows: list[dict]) -> None:
    """One line per sweep row: None is an empty cell, booleans are true/false."""
    numbers = np.array([[row[c] for c in _SWEEP_NUMBERS] for row in rows], object)
    missing = numbers == None  # noqa: E711 - elementwise
    cells = _cells(np.where(missing, 1.0, numbers).astype(float))  # None: 1.0, then emptied
    cells[missing] = 0
    flags = np.array([[_FLAG_TEXT[row["feasible"]], _FLAG_TEXT[row["dominant"]]] for row in rows],
                     f"S{_WIDTH}").view(np.uint8).reshape(-1, 2, _WIDTH)
    with open(path, "wb") as handle:
        handle.write((",".join(_SWEEP_COLUMNS) + "\n").encode())
        handle.write(_lines(cells[:, :5], flags[:, 0], cells[:, 5:], flags[:, 1]))
