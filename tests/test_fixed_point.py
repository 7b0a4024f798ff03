"""Fixed-point recursion checks: the selective phase against its
anchor-vector form, the eps^(3^k) failure law against exact simulation, the
reflection about psi0 against the U0-word recursion, the overlap-coefficient
identities, the damped Fisher information, and the Bessel closed form of the
damped geodesic."""
import cmath
import math
import tracemalloc
from typing import Callable, NamedTuple

import numpy as np
import pytest

from qsearch import CHUNK, cli
from qsearch import fixed_point as fp
from qsearch import info_geom as ig
from test_info_geom import check_unitary, general_iterate


def damped_fisher(c, rate, theta):
    """Oracle of the damped family's Fisher information: for
    p_1 = c e^{-rate theta}, F = p_1'^2 / (p_1 (1 - p_1)) =
    rate^2 p_1 / (1 - p_1)."""
    p1 = c * math.exp(-rate * theta)
    return rate * rate * p1 / (1.0 - p1)


def fit_p1_decay_exponent():
    """Oracle of the Bessel decay law (acceptance criterion C9): the
    least-squares slope of log p_1 against theta for the first-kind closed
    form at L0 = 2, gamma = 1.  The window [4, 10] sits in the asymptotic
    regime: closer to the origin the next-order Bessel term still contributes
    a percent-level correction."""
    thetas = np.linspace(4.0, 10.0, 200)
    logs = [2.0 * math.log(abs(fp.bessel_solution(t, 1.0, 0.0, 2.0, 1.0))) for t in thetas]
    return float(np.polyfit(thetas, logs, 1)[0])


def identity_holds(eps, tol=1e-14):
    """|omega + eps|^2 = 1 + eps + eps^2 and
    |omega (omega + eps)|^2 (1 - eps) = 1 - eps^3, the identities behind the
    coefficient track."""
    lhs1 = abs(fp.OMEGA + eps) ** 2
    lhs2 = abs(fp.OMEGA * (fp.OMEGA + eps)) ** 2 * (1.0 - eps)
    return abs(lhs1 - (1.0 + eps + eps * eps)) <= tol and abs(lhs2 - (1.0 - eps**3)) <= tol


def anchored_phase(state, anchor, phi):
    """Oracle of the selective phase: R = I - (1 - e^{i phi}) |a><a| applied
    to a state through the overlap with a normalized anchor vector."""
    overlap = np.vdot(anchor, state)
    return state - (1.0 - cmath.exp(1j * phi)) * overlap * anchor


def basis_state(n, index):
    v = np.zeros(n, dtype=np.complex128)
    v[index] = 1.0
    return v


def walsh_hadamard(n_qubits):
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    out = np.array([[1.0]])
    for _ in range(n_qubits):
        out = np.kron(out, h)
    return out.astype(np.complex128)


def haar_unitary(n, rng):
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def uniform_state(n):
    """psi0 = H^{(x)n}|0>, as `fixed-point --u0 wh` builds it."""
    return np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)


# -- oracle: the U0-word recursion U_{k+1} = U_k R_s U_k^dag R_t U_k, which
# applies U0 or its adjoint 3^k times to reach depth k


class UnitaryOperator(NamedTuple):
    """A unitary on C^n given by its action on states: apply(v) overwrites
    the complex128 state v with U v and returns it, and apply_dag(v) with
    U^dag v."""

    n: int
    apply: Callable[[np.ndarray], np.ndarray]
    apply_dag: Callable[[np.ndarray], np.ndarray]


def dense_operator(u):
    """Operator of a dense unitary matrix, validated, with its adjoint
    formed once; each product is written back into its state."""
    u, u_dag = check_unitary(u)
    return UnitaryOperator(u.shape[0], lambda v: np.matmul(u, v, out=v), lambda v: np.matmul(u_dag, v, out=v))


def walsh_hadamard_transform(v):
    """H^{(x)n} v for a complex128 state of length N = 2^n in O(N log N),
    written into v, which is returned: radix-2 butterflies in constant
    geometry, each pass transforming the lowest index bit and rotating it to
    the top.  On a basis state the butterflies are exact integer sums, so
    the amplitudes carry only the rounding of the one final scaling by
    1/sqrt(N)."""
    size = v.shape[0] if isinstance(v, np.ndarray) and v.ndim == 1 else 0
    if size < 2 or size & (size - 1):
        raise ValueError("the Walsh-Hadamard transform needs a vector of length 2^n, n >= 1")
    if v.dtype != np.complex128:
        raise ValueError(f"the Walsh-Hadamard transform works in place on complex128, got {v.dtype}")
    x, y = v, np.empty_like(v)
    half = size // 2
    for _ in range(size.bit_length() - 1):
        even, odd = x[0::2], x[1::2]
        np.add(even, odd, out=y[:half])
        np.subtract(even, odd, out=y[half:])
        x, y = y, x
    if x is not v:
        v[:] = x
    v *= 1.0 / math.sqrt(size)
    return v


def walsh_hadamard_operator(n_qubits):
    """H^{(x)n} on N = 2^n amplitudes, self-adjoint."""
    if n_qubits < 1:
        raise ValueError("the Walsh-Hadamard operator needs at least one qubit")
    return UnitaryOperator(1 << n_qubits, walsh_hadamard_transform, walsh_hadamard_transform)


def word_apply_uk(k, v, u0, tgt, dag=False):
    """U_k v, or U_k^dag v with ``dag``, through the U0 word."""
    if k == 0:
        return u0.apply_dag(v) if dag else u0.apply(v)
    return word_raise_depth(k - 1, word_apply_uk(k - 1, v, u0, tgt, dag), u0, tgt, dag)


def word_raise_depth(k, w, u0, tgt, dag=False):
    """U_k R_s U_k^dag R_t w, or with ``dag`` U_k^dag R_t^dag U_k R_s^dag w."""
    first, second = (0, tgt) if dag else (tgt, 0)
    phi = -math.pi / 3.0 if dag else math.pi / 3.0
    w = fp.selective_phase(w, first, phi)
    w = word_apply_uk(k, w, u0, tgt, not dag)
    w = fp.selective_phase(w, second, phi)
    return word_apply_uk(k, w, u0, tgt, dag)


def apply_letters(word, v, psi0, tgt):
    """A word of `fp._word`'s letters applied to v in the order they act,
    each through the anchor-vector oracle: a reflection about psi0 or about
    the target basis state."""
    anchor = basis_state(len(v), tgt)
    for about_psi0, phi in word:
        v = anchored_phase(v, psi0 if about_psi0 else anchor, phi)
    return v


def adjoint_letters(word):
    """The adjoint word: the letters reversed, each phase negated."""
    return [(about_psi0, -phi) for about_psi0, phi in reversed(word)]


def word_states(u0, target, depth):
    """U_k|0> for k = 0..depth, each depth raised from the one before."""
    psi = u0.apply(basis_state(u0.n, 0))
    states = [psi.copy()]
    for k in range(depth):
        psi = word_raise_depth(k, psi, u0, target)
        states.append(psi.copy())
    return states


def overlap_and_failure(psi, target):
    rest = psi.copy()
    rest[target] = 0.0
    return complex(psi[target]), float(np.real(np.vdot(rest, rest)))


class TestSelectivePhase:
    def test_pi_reduces_to_reflection(self):
        n = 8
        rng = np.random.default_rng(51)
        s = rng.normal(size=n) + 1j * rng.normal(size=n)
        s /= np.linalg.norm(s)
        want = s.copy()
        want[3] = -want[3]
        got = fp.selective_phase(s, 3, math.pi)
        assert got is s
        assert np.allclose(got, want, atol=1e-14)

    def test_zero_phase_is_identity(self):
        s = np.array([0.6, 0.8j])
        assert np.allclose(fp.selective_phase(s.copy(), 0, 0.0), s)

    def test_unitary_for_random_phase(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            s = rng.normal(size=6) + 1j * rng.normal(size=6)
            phi = rng.uniform(0, 2 * math.pi)
            out = fp.selective_phase(s.copy(), int(rng.integers(0, 6)), phi)
            assert abs(np.linalg.norm(out) - np.linalg.norm(s)) < 1e-12

    def test_bitwise_equal_to_anchor_vector_form(self):
        # the recursion's phases +-pi/3 and two others, on every index of random states
        rng = np.random.default_rng(56)
        for n in (2, 7, 64):
            for phi in (math.pi / 3.0, -math.pi / 3.0, math.pi, 2.1):
                s = rng.normal(size=n) + 1j * rng.normal(size=n)
                for index in range(n):
                    want = anchored_phase(s, basis_state(n, index), phi)
                    got = fp.selective_phase(s.copy(), index, phi)
                    assert got.tobytes() == want.tobytes()


class TestFailureLaw:
    def test_walsh_hadamard_n4(self):
        _, eps = fp.fixed_point_run(walsh_hadamard(2)[:, 0], target=2, depth=3)
        assert abs(eps[0] - 0.75) < 1e-14
        for k, eps_k in enumerate(eps):
            want = fp.closed_form_failure(eps[0], k)
            assert abs(eps_k - want) <= 1e-10 * max(want, 1e-12)

    def test_random_unitaries(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            n = int(rng.choice([4, 8, 16]))
            u0 = haar_unitary(n, rng)
            target = int(rng.integers(0, n))
            _, eps = fp.fixed_point_run(u0[:, 0], target=target, depth=3)
            for k, eps_k in enumerate(eps):
                want = fp.closed_form_failure(eps[0], k)
                assert abs(eps_k - want) <= 1e-10 * max(want, 1e-12)

    def test_monotone_decrease(self):
        _, fails = fp.fixed_point_run(walsh_hadamard(3)[:, 0], target=1, depth=3)
        assert np.all(fails[:-1] > fails[1:])

    def test_exact_start_stays_exact(self):
        # U0 mapping source directly onto the target: eps = 0 at every depth
        _, eps = fp.fixed_point_run(np.array([0.0, 1.0]), target=1, depth=3)
        assert np.all(eps < 1e-12)

    def test_depth_cap(self):
        with pytest.raises(ValueError):
            fp.fixed_point_run(uniform_state(4), target=0, depth=6)

    @pytest.mark.parametrize("target", [-1, 4])
    def test_target_out_of_range_rejected(self, target):
        # a negative index would otherwise wrap to the last amplitude
        with pytest.raises(ValueError, match=f"index {target} out of range for N=4"):
            fp.fixed_point_run(uniform_state(4), target=target, depth=2)

    @pytest.mark.parametrize("psi0", [np.ones(4), np.full(4, 0.5 + 1e-9), np.zeros(4)], ids=["norm-2", "near", "zero"])
    def test_psi0_that_is_not_a_unit_vector_rejected(self, psi0):
        with pytest.raises(ValueError, match="psi0 must be a unit vector"):
            fp.fixed_point_run(psi0, target=0, depth=1)

    @pytest.mark.parametrize(
        "u, message",
        [(np.eye(2, 3), "U must be square"), (np.array([[1.0, 1.0], [0.0, 1.0]]), "U must be unitary")],
        ids=["non-square", "non-unitary"],
    )
    @pytest.mark.parametrize(
        "run",
        [lambda u: word_states(dense_operator(u), target=1, depth=1), lambda u: general_iterate(u, 0, 1)],
        ids=["dense_operator", "general_iterate"],
    )
    def test_matrix_that_is_not_unitary_rejected(self, run, u, message):
        with pytest.raises(ValueError, match=message):
            run(u)

    def test_closed_form_examples(self):
        assert abs(fp.closed_form_failure(0.1, 1) - 1e-3) < 1e-18
        assert abs(fp.closed_form_failure(0.1, 2) - 1e-9) < 1e-22

    def test_closed_form_rejects_a_failure_outside_the_unit_interval(self):
        with pytest.raises(ValueError, match=r"failure probability must lie in \[0, 1\]"):
            fp.closed_form_failure(1.5, 1)

    def test_closed_form_over_depths_is_the_scalar_power(self):
        # to the bit: numpy's own power of an array moves about 1 value in 20
        for eps in np.random.default_rng(8).random(200).tolist():
            assert fp.closed_form_failure(eps, np.arange(6)).tolist() == [eps ** 3**k for k in range(6)]

    @staticmethod
    def starts():
        """(psi0, target) of `fixed-point --u0 wh` at N = 2..4096, target 0
        and N - 1, and of a failure `--u0` at 0.100..0.999 in steps of 0.001."""
        for n in (1 << j for j in range(1, 13)):
            for target in (0, n - 1):
                yield uniform_state(n), target
        for eps in np.round(np.arange(0.1, 0.9995, 0.001), 3).tolist():
            yield np.array([-math.sqrt(eps), math.sqrt(1.0 - eps)], dtype=np.complex128), 1

    def test_failure_law_bound_and_floor(self):
        # the bound: 1e-10 relative wherever eps^(3^k) >= 1e-8.  The floor:
        # the simulated failure amplitude sqrt(eps_k) stays within 1e-13 of
        # the closed form's at every depth, so below 1e-8 the relative error
        # grows as 1/sqrt(eps^(3^k)) (2e-10 at 1e-10) and eps_k bottoms out
        # near 1e-30 where the closed form is far smaller
        worst_rel, worst_amp = 0.0, 0.0
        for psi0, target in self.starts():
            _, sim = fp.fixed_point_run(psi0, target=target, depth=5)
            closed = fp.closed_form_failure(float(sim[0]), np.arange(6))
            rel = np.abs(sim - closed) / np.maximum(closed, 1e-300)
            worst_rel = max(worst_rel, float(rel[closed >= 1e-8].max()))
            worst_amp = max(worst_amp, float(np.abs(np.sqrt(sim) - np.sqrt(closed)).max()))
        assert worst_rel <= 1e-10
        assert worst_amp <= 1e-13


class TestWalshHadamardOperator:
    """The butterfly H^{(x)n} of the U0-word oracle, and the run from the
    uniform psi0 that replaces it."""

    def test_transform_matches_kron_matrix(self):
        rng = np.random.default_rng(55)
        for n_qubits in range(1, 9):
            dense = walsh_hadamard(n_qubits)
            for _ in range(3):
                v = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
                got = walsh_hadamard_transform(v.copy())
                assert np.max(np.abs(got - dense @ v)) < 1e-13
                assert np.max(np.abs(walsh_hadamard_transform(got.copy()) - v)) < 1e-13

    def test_transform_works_in_place(self):
        # an odd number of passes ends in the scratch buffer and is copied back
        for n_qubits in (1, 2, 3):
            v = np.arange(1 << n_qubits, dtype=np.complex128)
            want = walsh_hadamard(n_qubits) @ v
            assert walsh_hadamard_transform(v) is v
            assert np.max(np.abs(v - want)) < 1e-13

    @pytest.mark.parametrize("length", [0, 1, 3, 12])
    def test_transform_rejects_other_lengths(self, length):
        with pytest.raises(ValueError):
            walsh_hadamard_transform(np.ones(length, dtype=np.complex128))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex64])
    def test_transform_rejects_other_dtypes(self, dtype):
        with pytest.raises(ValueError, match="complex128"):
            walsh_hadamard_transform(np.ones(8, dtype=dtype))

    def test_dense_operator_works_in_place(self):
        rng = np.random.default_rng(56)
        u, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        op = dense_operator(u)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        for apply, mat in ((op.apply, u), (op.apply_dag, u.conj().T)):
            w = v.copy()
            assert apply(w) is w
            assert np.array_equal(w, mat @ v)

    def test_operator_needs_a_qubit(self):
        with pytest.raises(ValueError):
            walsh_hadamard_operator(0)

    def test_run_matches_dense_matrix(self):
        for n_qubits, target in [(1, 1), (2, 2), (3, 5), (5, 0), (6, 41), (8, 200)]:
            c_run, eps_run = fp.fixed_point_run(uniform_state(1 << n_qubits), target=target, depth=4)
            dense = word_states(dense_operator(walsh_hadamard(n_qubits)), target, depth=4)
            assert len(c_run) == len(eps_run) == len(dense) == 5
            for c_k, eps_k, psi in zip(c_run, eps_run, dense):
                c, eps = overlap_and_failure(psi, target)
                assert abs(c_k - c) < 1e-12
                assert abs(eps_k - eps) < 1e-12

    def test_depth_reuse_counts(self, monkeypatch):
        # depth k + 1 starts from depth k's state: reaching depth 5 reflects
        # about psi0 and about the target (3^5 - 1)/2 = 121 times each, and
        # spells each depth's word once; the word has no U0 letter left, and
        # the run is given none
        calls = {"psi0": 0, "target": 0, "word": 0}
        reflect_psi0, selective_phase, word = fp._reflect_psi0, fp.selective_phase, fp._word

        def counted(key, step):
            def wrapper(*args):
                calls[key] += 1
                return step(*args)

            return wrapper

        monkeypatch.setattr(fp, "_reflect_psi0", counted("psi0", reflect_psi0))
        monkeypatch.setattr(fp, "selective_phase", counted("target", selective_phase))
        monkeypatch.setattr(fp, "_word", counted("word", word))
        fp.fixed_point_run(uniform_state(16), target=3, depth=5)
        assert calls == {"psi0": 121, "target": 121, "word": 6}

    def test_peak_memory_is_a_few_states(self):
        # the run keeps one state beside psi0, not one per depth, steps it in
        # place, and sums the failure probability without a copy: its own
        # allocations are that state and one reflection chunk
        n = 1 << 16
        state_bytes = 16 * n
        psi0 = uniform_state(n)
        tracemalloc.start()
        try:
            fp.fixed_point_run(psi0, target=12345, depth=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= state_bytes + 2 * 16 * CHUNK


class TestAdjointRecursion:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("u0_kind, n", [("random", 4), ("random", 8), ("wh", 8)])
    def test_dag_is_the_adjoint_of_u_k(self, u0_kind, n, k):
        # A_k built column by column from basis states through its word,
        # against the reversed, phase-negated word on the same basis states;
        # U_k = A_k U0 and U_k^dag = U0^dag A_k^dag against the U0 word
        u0 = walsh_hadamard(3) if u0_kind == "wh" else haar_unitary(n, np.random.default_rng(57 + n))
        psi0, tgt = u0[:, 0].copy(), n - 2
        word = fp._word(k)
        a_k = np.column_stack([apply_letters(word, basis_state(n, j), psi0, tgt) for j in range(n)])
        a_k_dag = np.column_stack([apply_letters(adjoint_letters(word), basis_state(n, j), psi0, tgt) for j in range(n)])
        assert np.max(np.abs(a_k_dag - a_k.conj().T)) < 1e-12
        assert np.max(np.abs(a_k_dag @ a_k - np.eye(n))) < 1e-12
        op = dense_operator(u0)
        u_k = np.column_stack([word_apply_uk(k, basis_state(n, j), op, tgt) for j in range(n)])
        u_k_dag = np.column_stack([word_apply_uk(k, basis_state(n, j), op, tgt, dag=True) for j in range(n)])
        assert np.max(np.abs(a_k @ u0 - u_k)) < 1e-12
        assert np.max(np.abs(u0.conj().T @ a_k_dag - u_k_dag)) < 1e-12


class TestU0Word:
    @pytest.mark.parametrize(
        "u0",
        [walsh_hadamard(n_qubits) for n_qubits in range(1, 9)]
        + [haar_unitary(n, np.random.default_rng(60 + n)) for n in (2, 3, 5, 16)],
        ids=[f"kron-{1 << n_qubits}" for n_qubits in range(1, 9)] + [f"haar-{n}" for n in (2, 3, 5, 16)],
    )
    def test_states_match_the_u0_word(self, u0):
        # A_k psi0 against U_k|0> from the word that applies U0 3^k times,
        # at every depth up to 4 and for the first and last target
        n = u0.shape[0]
        psi0 = u0[:, 0].copy()
        for target in sorted({0, n - 1}):
            want = word_states(dense_operator(u0), target, depth=4)
            c_run, eps_run = fp.fixed_point_run(psi0, target=target, depth=4)
            for k, psi in enumerate(want):
                got = apply_letters(fp._word(k), psi0, psi0, target)
                assert np.max(np.abs(got - psi)) < 1e-12
                c, eps = overlap_and_failure(psi, target)
                assert abs(c_run[k] - c) < 1e-12 and abs(eps_run[k] - eps) < 1e-12


class TestCoefficientIdentity:
    def test_null_case(self):
        assert identity_holds(0.0)

    def test_half_case_values(self):
        eps = 0.5
        lhs = abs(fp.OMEGA * (fp.OMEGA + eps)) ** 2 * (1 - eps)
        assert abs(lhs - 0.875) < 1e-15
        assert abs((1 - eps**3) - 0.875) < 1e-15
        assert identity_holds(eps)

    def test_grid(self):
        for eps in np.linspace(0.0, 1.0, 1000):
            assert identity_holds(float(eps))


class TestDampedFisher:
    def test_constant_xi(self):
        c = 0.6
        fam = fp.damped_family(c, 1.0)
        for theta in (0.5, 2.0, 5.0):
            want = c * math.exp(-theta) / (1.0 - c * math.exp(-theta))
            assert abs(ig.fisher_rao(fam, theta) - want) < 1e-12

    def test_decays_at_large_theta(self):
        values = ig.fisher_rao(fp.damped_family(0.8, 1.0), np.array([1.0, 5.0, 10.0, 20.0])).tolist()
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-7

    def test_cross_module_fisher_agreement(self):
        # c = 0.999995 puts p_1 within 5e-6 of 1 at theta = 0, the CLI's
        # first row; the largest deviation measured was 5.8e-16
        thetas = np.linspace(0.0, 10.0, 201)
        for c in (1e-3, 0.5, 0.999995):
            for rate in (1.0, 2.0):
                want = np.array([damped_fisher(c, rate, t) for t in thetas.tolist()])
                got = ig.fisher_rao(fp.damped_family(c, rate), thetas)
                assert np.max(np.abs(got - want) / want) < 2e-15

    def test_domain_validation(self):
        # 0 < p_1 < 1 is the family's one rule: a c outside (0, 1) fails
        # where p_1 = c, at theta = 0, and is refused before sqrt(c) is taken
        for c in (1.5, 0.0, -0.5):
            fam = fp.damped_family(c, 1.0)
            for evaluate in (fam.q, fam.dq):
                with pytest.raises(ValueError, match=r"^p_1 must lie strictly inside \(0, 1\)$"):
                    evaluate(np.array([0.0]))
        # a c inside (0, 1) fails wherever p_1 leaves (0, 1)
        with pytest.raises(ValueError, match="p_1 must lie strictly inside"):
            ig.fisher_rao(fp.damped_family(0.5, 1.0), -20.0)
        # c = 1 reads where p_1 < 1, but p_1 = 1 at theta = 0 is refused
        fam = fp.damped_family(1.0, 2.0)
        assert ig.fisher_rao(fam, 0.5) > 0.0
        with pytest.raises(ValueError, match="p_1 must lie strictly inside"):
            ig.fisher_rao(fam, np.array([0.5, 0.0]))

    def test_q1_is_sqrt_c_times_the_decay(self):
        # the check comes first, and q_1 keeps the bits of sqrt(c) e^{-r theta/2}
        thetas = np.linspace(0.0, 10.0, 201)
        for c in (1e-3, 0.5, 0.999995):
            for rate in (1.0, 2.0):
                fam = fp.damped_family(c, rate)
                want = math.sqrt(c) * np.exp(-0.5 * rate * thetas)
                assert fam.q(thetas)[:, 1].tobytes() == want.tobytes()
                assert fam.dq(thetas)[:, 1].tobytes() == (-0.5 * rate * want).tobytes()


def rk4_oracle(deriv, y0, ts):
    """Classic RK4 on ndarray states, one step from each point of the grid
    ts to the next: the state at every grid point."""
    ys = np.empty((len(ts),) + y0.shape)
    ys[0] = y = y0.astype(np.float64)
    for i, (t, t1) in enumerate(zip(ts[:-1], ts[1:]), 1):
        h = t1 - t
        k1 = deriv(t, y)
        k2 = deriv(t + h / 2, y + h / 2 * k1)
        k3 = deriv(t + h / 2, y + h / 2 * k2)
        k4 = deriv(t1, y + h * k3)
        ys[i] = y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return ys


def damped_oracle(l0, gamma, q0, qdot0, ts):
    """The damped geodesic's q at each point of the grid ts, through the
    ndarray RK4."""

    def deriv(t, y):
        q, qd = y
        return np.array([qd, -gamma * qd - 0.5 * l0 * math.exp(-gamma * t) * q])

    return rk4_oracle(deriv, np.array([q0, qdot0], dtype=np.float64), ts.tolist())[:, 0]


def damped_stage_oracle(l0, gamma, q0, qdot0, ts):
    """The damped geodesic's q at each point of the grid ts, through a scalar
    RK4 that calls the acceleration once per stage, four exponentials a
    step."""

    def accel(t, q, qd):
        return -gamma * qd - 0.5 * l0 * math.exp(-gamma * t) * q

    q, qd = float(q0), float(qdot0)
    qs = [q]
    for t, t1 in zip(ts.tolist(), ts.tolist()[1:]):
        h = t1 - t
        half = h / 2
        k1q, k1v = qd, accel(t, q, qd)
        k2q = qd + half * k1v
        k2v = accel(t + half, q + half * k1q, k2q)
        k3q = qd + half * k2v
        k3v = accel(t + half, q + half * k2q, k3q)
        k4q = qd + h * k3v
        k4v = accel(t1, q + h * k3q, k4q)
        q = q + h / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q)
        qd = qd + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        qs.append(q)
    return np.array(qs)


def damped_cli_start(l0, gamma, a, b):
    """q0 and q'0 as `damped` takes them from the closed form: one call at
    theta = -h, 0 and h."""
    h = 1e-6
    q_minus, q0, q_plus = fp.bessel_solution(np.array([-h, 0.0, h]), a, b, l0, gamma).tolist()
    return q0, (q_plus - q_minus) / (2.0 * h)


class TestDampedGeodesic:
    @pytest.mark.parametrize(
        "l0, gamma, q0, qdot0, theta_end, dtheta",
        [
            # `damped`'s defaults: L0 = 2, gamma = 1, A = 1, B = 0 over [0, 10]
            (2.0, 1.0, *damped_cli_start(2.0, 1.0, 1.0, 0.0), 10.0, 1e-3),
            (5.0, 0.5, 1.2, 0.4, 6.0, 2e-3),
            # 7.771 / 3e-3 is not an integer: the last step is shortened
            (3.3, 0.7, 0.3, -0.8, 7.771, 3e-3),
        ],
        ids=["defaults", "other", "short-last-step"],
    )
    def test_bitwise_equal_to_per_stage_rk4(self, l0, gamma, q0, qdot0, theta_end, dtheta):
        grid = cli._theta_grid(theta_end, dtheta)
        q = fp.damped_geodesic_solve(l0, gamma, q0, qdot0, grid)
        assert q.tobytes() == damped_stage_oracle(l0, gamma, q0, qdot0, grid).tobytes()

    @pytest.mark.parametrize(
        "l0, gamma, theta_end, dtheta",
        [(2.0, 1.0, 10.0, 1e-3), (2.0, 0.0, 3.0, 1e-3), (3.3, 0.7, 7.77, 3e-3), (3.3, 0.7, 7.771, 3e-3)],
    )
    def test_bitwise_equal_to_ndarray_rk4(self, l0, gamma, theta_end, dtheta):
        q0, qdot0 = 0.3, -0.8
        grid = cli._theta_grid(theta_end, dtheta)
        q = fp.damped_geodesic_solve(l0, gamma, q0, qdot0, grid)
        want = damped_oracle(l0, gamma, q0, qdot0, grid)
        assert q.shape == want.shape == grid.shape and q.tobytes() == want.tobytes()

    def test_final_step_shortened(self):
        # 7.771 / 3e-3 is not an integer: the last step lands on the horizon
        grid = cli._theta_grid(7.771, 3e-3)
        assert grid[-1] == pytest.approx(7.771, abs=1e-12)
        assert grid[-1] - grid[-2] == pytest.approx(1e-3, abs=1e-9)
        assert len(fp.damped_geodesic_solve(3.3, 0.7, 0.3, -0.8, grid)) == len(grid)

    def test_rk4_matches_bessel_closed_form(self):
        l0, gamma = 2.0, 1.0
        a, b = 1.0, 0.0
        grid = cli._theta_grid(8.0, 1e-3)
        q = fp.damped_geodesic_solve(l0, gamma, *damped_cli_start(l0, gamma, a, b), grid)
        every = len(grid) // 50
        assert np.max(np.abs(q[::every] - fp.bessel_solution(grid[::every], a, b, l0, gamma))) < 1e-6

    def test_initial_data_is_the_three_scalar_calls(self):
        # one call on [-h, 0, h] is bitwise the three one-theta calls
        h = 1e-6
        for l0, gamma, a, b in ((2.0, 1.0, 1.0, 0.0), (5.0, 0.3, -0.4, 2.0), (100.0, 0.01, 1.0, 0.3)):
            q0 = fp.bessel_solution(0.0, a, b, l0, gamma)
            qdot0 = (fp.bessel_solution(h, a, b, l0, gamma) - fp.bessel_solution(-h, a, b, l0, gamma)) / (2.0 * h)
            assert damped_cli_start(l0, gamma, a, b) == (q0, qdot0)

    def test_pure_damping_limit(self):
        gamma, q0, qdot0 = 1.3, 0.4, 0.9
        q = fp.damped_geodesic_solve(0.0, gamma, q0, qdot0, cli._theta_grid(5.0, 1e-3))
        want = q0 + qdot0 * (1.0 - math.exp(-gamma * 5.0)) / gamma
        assert abs(q[-1] - want) < 1e-8

    @pytest.mark.parametrize(
        "gamma, grid, message",
        [
            (-1.0, [0.0, 0.5, 1.0], "L0 and gamma must be nonnegative"),
            (1.0, [0.5, 1.0], "the grid must start at theta = 0, got 0.5"),
            (1.0, [0.0, 0.5, 0.5, 1.0], "the grid must increase, got 0.5 after 0.5"),
            (1.0, [0.0, 0.5, 0.4], "the grid must increase, got 0.4 after 0.5"),
        ],
        ids=["negative-gamma", "not-from-zero", "zero-step", "negative-step"],
    )
    def test_bad_parameters_rejected(self, gamma, grid, message):
        with pytest.raises(ValueError, match=message):
            fp.damped_geodesic_solve(2.0, gamma, 1.0, 0.0, np.array(grid))

    def test_small_gamma_approaches_oscillator(self):
        # gamma -> 0 with L0 = 8 behaves like q'' + 4 q = 0 over short spans
        q0, qdot0 = 1.0, 0.0
        q = fp.damped_geodesic_solve(8.0, 1e-6, q0, qdot0, cli._theta_grid(0.5, 1e-4))
        assert abs(q[-1] - math.cos(2.0 * 0.5)) < 1e-4

    def test_rk4_radius_is_inside_the_stability_region(self):
        # RK4_RADIUS is the largest left half-disk inside
        # |1 + z + z^2/2 + z^3/6 + z^4/24| <= 1, rounded down: on the
        # half-disk's boundary |R| stays within 1 (to rounding), and 1e-4
        # further out it does not
        def worst(r):
            arc = r * np.exp(1j * np.linspace(math.pi / 2, 3 * math.pi / 2, 100001))
            z = np.concatenate([arc, 1j * np.linspace(-r, r, 100001)])
            return float(np.max(np.abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24)))

        assert worst(fp.RK4_RADIUS) <= 1.0 + 1e-15
        assert worst(fp.RK4_RADIUS + 1e-4) > 1.0 + 1e-6

    @pytest.mark.parametrize("l0, gamma", [(2e4, 0.0), (0.0, 100.0)], ids=["omega", "gamma"])
    def test_grid_past_the_stability_radius_refused(self, l0, gamma):
        # the largest eigenvalue is 100, as omega = sqrt(L0/2) or as gamma:
        # a step 1% inside RK4_RADIUS / 100 runs and stays bounded, one 1%
        # past it is refused before the loop
        h = fp.RK4_RADIUS / 100.0
        q = fp.damped_geodesic_solve(l0, gamma, 1.0, 1.0, cli._theta_grid(1.0, 0.99 * h))
        assert np.all(np.abs(q) <= 1.02)
        message = r"^RK4 is unstable on this grid: step \S+ times max\(sqrt\(L0/2\), gamma\) 100.0 exceeds 2.6155$"
        with pytest.raises(ValueError, match=message):
            fp.damped_geodesic_solve(l0, gamma, 1.0, 1.0, cli._theta_grid(1.0, 1.01 * h))

    def test_grid_and_path_are_the_only_arrays(self):
        # the grid and q take 8 bytes a point each, and the loop reads and
        # writes them through memoryviews, so no third array of that size (a
        # list of exponentials) is made; the stability check's difference of
        # the grid is freed before q is made.  The bound
        # scales with the grid; tracemalloc slows the RK4 loop 5-40 fold, so
        # the grid has 2^16 steps, not the 10^6 of `damped --theta-end 100
        # --dtheta 1e-4`
        tracemalloc.start()
        try:
            grid = cli._theta_grid(2**16 * 1e-3, 1e-3)
            fp.damped_geodesic_solve(2.0, 1.0, 1.0, 0.0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(grid) == 2**16 + 1
        assert peak <= 2.2 * grid.nbytes


class TestBesselSolution:
    def test_small_argument_law(self):
        for z in (1e-4, 1e-3, 1e-2):
            from qsearch.bessel import j1

            assert abs(j1(z) - z / 2.0) < z**3

    def test_ode_residual_three_constant_choices(self):
        l0, gamma = 2.0, 1.0
        for a, b in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
            assert np.max(np.abs(fp.bessel_ode_residual(np.linspace(0.0, 10.0, 1000), a, b, l0, gamma))) < 1e-6

    def test_ode_residual_other_parameters(self):
        for l0, gamma in ((5.0, 0.5), (1.0, 2.0)):
            assert np.max(np.abs(fp.bessel_ode_residual(np.linspace(0.0, 10.0, 400), 0.7, -0.2, l0, gamma))) < 1e-6

    def test_residual_does_not_depend_on_its_chunk(self):
        # z = sqrt(2 L0)/gamma e^{-gamma theta/2} runs from 2828 down to 1.6,
        # across the z = 12 cutoff (near index 9039), over three full chunks
        # and a short tail; the slice starts and ends inside chunks, crosses
        # the cutoff and is itself longer than a chunk, so its own seam falls
        # elsewhere than the whole grid's
        thetas = np.linspace(0.0, 300.0, 3 * CHUNK + 123)
        whole = fp.bessel_ode_residual(thetas, 0.7, -0.2, 1e4, 0.05)
        part = slice(5000, 5000 + CHUNK + 7)
        assert whole[part].tobytes() == fp.bessel_ode_residual(thetas[part], 0.7, -0.2, 1e4, 0.05).tobytes()
        for i in (0, 5000, CHUNK, len(thetas) - 1):
            assert whole[i] == fp.bessel_ode_residual(float(thetas[i]), 0.7, -0.2, 1e4, 0.05)

    def test_zero_constants_give_zero(self):
        assert fp.bessel_solution(3.0, 0.0, 0.0, 2.0, 1.0) == 0.0
        # at L0 = 50, J1(z) < 0 on 3.83 < z < 7.02: a skipped A J1 leaves
        # +0.0 where 0 * J1 would print `-0`
        thetas = np.linspace(0.0, 3.0, 301)
        assert np.any(fp.bessel_solution(thetas, 1.0, 0.0, 50.0, 1.0) < 0.0)
        assert not np.any(np.signbit(fp.bessel_solution(thetas, 0.0, 0.0, 50.0, 1.0)))

    def test_first_kind_alone_skips_y1(self):
        # z = 2 e^{-1000} underflows to 0, where y1 is refused and j1 is 0
        assert fp.bessel_solution(np.array([0.0, 2000.0]), 1.0, 0.0, 2.0, 1.0)[1] == 0.0
        with pytest.raises(ValueError, match="y1 requires a positive argument"):
            fp.bessel_solution(np.array([0.0, 2000.0]), 1.0, 1.0, 2.0, 1.0)

    @pytest.mark.parametrize("l0, gamma", [(-1.0, 1.0), (0.0, 1.0), (2.0, 0.0), (2.0, -0.5)])
    def test_nonpositive_l0_or_gamma_rejected(self, l0, gamma):
        with pytest.raises(ValueError, match="L0 and gamma must be positive"):
            fp.bessel_solution(1.0, 1.0, 0.0, l0, gamma)
        with pytest.raises(ValueError, match="L0 and gamma must be positive"):
            fp.bessel_ode_residual(1.0, 1.0, 0.0, l0, gamma)


class TestAsymptoticProbabilities:
    def test_decay_exponent_from_bessel(self):
        slope = fit_p1_decay_exponent()
        assert abs(slope - (-2.0)) < 0.01 * 2.0

    def test_amplitude_constant_is_fitted_not_structural(self):
        # p1 from the closed form differs from A e^{-2 theta} only by a
        # multiplicative constant in the asymptotic regime
        ratios = []
        for theta in np.linspace(5.0, 9.0, 10):
            q = fp.bessel_solution(theta, 1.0, 0.0, 2.0, 1.0)
            ratios.append(q * q / math.exp(-2.0 * theta))
        ratios = np.array(ratios)
        assert np.max(np.abs(ratios / ratios.mean() - 1.0)) < 0.02
