import numpy as np
import pytest

from spatialbsa.cli import CSV_HEADER
from spatialbsa.qsdc import flip_rails
from spatialbsa.register import ZeroNormError, _pick, basis_vectors

# The four rail operations on one photon in dense-coding code order:
# identity, swap, phase (negate rail 2), then swap followed by phase.
RAIL_OPS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
    np.array([[0, 1], [-1, 0]], dtype=complex),
)


def encode(psi, codes):
    """Alice's encoding of each row's code on photon a of a pair array, in place:
    swap the rails where the code is odd, then negate rail 2 where it is 2 or 3."""
    codes = np.asarray(codes)
    return flip_rails(psi, codes % 2 == 1, codes >= 2)


def measure(reg, name, basis, rng):
    """Projectively measure one subsystem of a register, collapsing it in place.

    The per-register reference for ``qsdc.measure_photon``: the outcome index
    (0 or 1, ordering the basis kets) inverts a single uniform from ``rng``
    by ``_pick``, and the collapsed register keeps its pre-measurement norm.
    Returns (outcome, register, the conditional probability of the outcome).
    """
    norm2 = reg.norm_squared()
    if norm2 <= 0.0:
        raise ZeroNormError("cannot measure a zero state")
    k = reg.axis(name)
    vs = basis_vectors(reg.subsystem(name).kind, basis)
    comp = np.tensordot(vs.conj().T, reg.amplitudes.reshape([2] * reg.n), axes=([1], [k]))
    weights = (np.abs(comp) ** 2).reshape(2, -1).sum(axis=1)
    p = weights / weights.sum()
    outcome = int(_pick(weights[0], weights[1], rng.random()))
    scale = np.sqrt(norm2 / weights[outcome])
    psi = np.multiply.outer(vs[:, outcome], comp[outcome]) * scale
    reg.amplitudes = np.ascontiguousarray(np.moveaxis(psi, 0, k)).reshape(-1)
    return outcome, reg, float(p[outcome])


def same_up_to_global_phase(x, y, atol=1e-12):
    """True when the amplitude arrays ``x`` and ``y`` differ by a global phase at most."""
    overlap = abs(np.vdot(x, y))
    return bool(abs(overlap - np.linalg.norm(x) * np.linalg.norm(y)) <= atol)


def parse_sweep_csv(text: str) -> list[dict]:
    """Parse an emitted sweep CSV back into one dict per row."""
    rows = []
    columns = CSV_HEADER.split(",")
    for line in text.splitlines():
        if not line or line.startswith("#") or line == CSV_HEADER:
            continue
        values = [float(v) for v in line.split(",")]
        rows.append(dict(zip(columns, values)))
    return rows


class ScriptedRng:
    """Stand-in for a Generator when a test needs exact uniform draws."""

    def __init__(self, draws):
        self._draws = list(draws)

    def random(self, size=None):
        if size is None:
            return self._draws.pop(0)
        block, self._draws = self._draws[:size], self._draws[size:]
        assert len(block) == size, "script ran out of draws"
        return np.array(block)


@pytest.fixture
def scripted_rng():
    return ScriptedRng


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
