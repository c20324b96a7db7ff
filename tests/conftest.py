import itertools

import numpy as np

from jarlskog import (
    MassPairInput,
    Spectrum,
    UnitaryMatrix,
    derive_seed,
    draw_trials,
    rephase,
)
from jarlskog import linalg, phases, sampling

#: master seed of the draws of tests that name no seed of their own
SEED = 20240817


def seed_array(seeds):
    """seeds (an int, or a list or array of them) as a (T,) uint64 array."""
    return np.array(seeds, dtype=np.uint64, ndmin=1)


def trial_seeds(count, master_seed=SEED, first=0):
    """The seeds derive_seed(master_seed, t) of trials t = first, ...,
    first + count - 1."""
    return derive_seed(master_seed, np.arange(first, first + count))


def haar(n, seed):
    """The Haar unitary of the trial seeded with seed, drawn as a stack of
    one."""
    return UnitaryMatrix(draw_trials(n, seed_array(seed))[0][0])


def haar_stack(n, count, master_seed=SEED, first=0):
    """The (count, n, n) Haar unitaries of the trials of trial_seeds, drawn
    as one stack."""
    return draw_trials(n, trial_seeds(count, master_seed, first))[0]


def haar_unitaries(n, count, master_seed=SEED, first=0):
    """haar_stack as a list of UnitaryMatrix."""
    return [UnitaryMatrix(m) for m in haar_stack(n, count, master_seed, first)]


def spectra(n, count, master_seed=SEED, first=0):
    """The (count, n) a-spectra of the trials of trial_seeds."""
    return draw_trials(n, trial_seeds(count, master_seed, first))[1]


def seeded_input(n, seed):
    """The mixing matrix and the two spectra of the trial seeded with seed."""
    v, a, b, _, _ = draw_trials(n, seed_array(seed))
    return MassPairInput(a=Spectrum(a[0]), b=Spectrum(b[0]), v=UnitaryMatrix(v[0]))


def stack_of_one(inp):
    """(a, b, cols, plaq) of one MassPairInput as stacks of one trial, the
    trials on the last axis: the (n, 1) spectra, the (re, im) column
    products and the (2, K, 1) plaquette store of V, which the determinant
    kernels take."""
    return (np.array([inp.a.values]).T, np.array([inp.b.values]).T,
            tuple(x[..., None] for x in inp.v.column_products),
            inp.v.plaquettes[..., None])


def uniforms(seed, count):
    """The first count doubles in [0, 1) of the stream seeded with seed, as
    a list."""
    return sampling._uniform(sampling._stream(seed_array(seed), count)[0]).tolist()


def normal_pairs(seeds, pairs):
    """(T, pairs, 2) Box-Muller normals from the first 2 * pairs outputs of
    each stream, two outputs per pair (the radial one, then the angle)."""
    seeds = seed_array(seeds)
    u = sampling._stream(seeds, 2 * pairs)
    return sampling._box_muller(u[:, 0::2], sampling._unit_phases(sampling._angles(u[:, 1::2])))


def ginibre_stack(n, count, master_seed=SEED, first=0):
    """The (count, n, n) complex Ginibre matrices of the trials of
    trial_seeds: the matrices that draw_trials turns into their Haar
    unitaries."""
    return sampling._as_ginibre(normal_pairs(trial_seeds(count, master_seed, first), n * n), n)


def rephased(v, theta, theta_prime):
    """v with entry (i, j) times exp(i (theta_i + theta_prime_j)): the
    rephasing kernel on a stack of one."""
    row, col = (sampling._unit_phases([x]) for x in (theta, theta_prime))
    return UnitaryMatrix(rephase(v.matrix[None], row, col)[0])


def tensor(store):
    """The (..., n, n, n, n) plaquettes of every 0-based index order from
    (..., K) plaquette stores, the columns on the last axis (a stack's
    store, with its trials last, enters transposed): one take of the
    layout's map of entries to columns (linalg._plaquette_layout)."""
    n = phases._check_plaquettes(store[..., None])
    return store.take(linalg._plaquette_layout(n)[1], axis=-1).reshape(*store.shape[:-1],
                                                                        *(n,) * 4)


def phase(v, a, b, j, k):
    """The complex plaquette of v at 1-based indices (a b; j k), the usual
    physics labels, read from the store v.plaquettes through its map."""
    re, im = (tensor(x)[a - 1, b - 1, j - 1, k - 1] for x in v.plaquettes)
    return complex(re, im)


def givens(n, p, q, theta, phi=0.0):
    """Complex rotation in the (p, q) plane, for building structured unitaries."""
    m = np.eye(n, dtype=complex)
    c, s = np.cos(theta), np.sin(theta)
    m[p, p] = c
    m[q, q] = c
    m[p, q] = s * np.exp(1j * phi)
    m[q, p] = -s * np.exp(-1j * phi)
    return m


def orthogonal4():
    """A real 4x4 rotation: every imaginary phase is exactly zero."""
    m = (
        givens(4, 0, 1, 0.7)
        @ givens(4, 1, 2, 1.1)
        @ givens(4, 2, 3, 0.5)
        @ givens(4, 0, 2, 0.9)
        @ givens(4, 1, 3, 0.4)
    )
    return UnitaryMatrix(m.astype(complex))


def signed_permutations(n):
    """Every n x n permutation matrix times each of the phases 1, -i, -1."""
    for perm in itertools.permutations(range(n)):
        for phase in (1, -1j, -1):
            m = np.zeros((n, n), dtype=complex)
            m[np.arange(n), perm] = phase
            yield UnitaryMatrix(m)


def bits(x):
    """float64 bit patterns as uint64, so signed zeros compare unequal."""
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def record_validations(monkeypatch):
    """Lists that fill, while monkeypatch is active, with (stack, results)
    of every linalg._validate_unitaries call, at each module that calls it,
    and with every UnitaryMatrix built (construction, too, fills its fields
    through UnitaryMatrix._from_stack)."""
    from jarlskog import problem_io, verify

    calls, built = [], []
    validate = linalg._validate_unitaries

    def recorded(m):
        calls.append((m, validate(m)))
        return calls[-1][1]

    for module in (linalg, problem_io, verify):
        monkeypatch.setattr(module, "_validate_unitaries", recorded)
    from_stack = UnitaryMatrix._from_stack.__func__

    def recorded_from_stack(cls, *args):
        built.append(from_stack(cls, *args))
        return built[-1]

    monkeypatch.setattr(UnitaryMatrix, "_from_stack", classmethod(recorded_from_stack))
    return calls, built
