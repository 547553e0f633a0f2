import hashlib
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from sddde import (
    ConvergenceError,
    DegenerateEigenvalueError,
    ExpPoly,
    NumericalError,
    SdddeError,
    char_matrix,
    char_matrix_deriv,
    characteristic_roots,
    combine,
    eigenfunction,
    hopf_eigendata,
    linearize,
    parse_model,
    resolvent_apply,
    solve_equilibrium,
    spectral_projection,
)
from sddde import spectral
from sddde.spectral import (
    Linearization,
    _boundary_data,
    _delta_pair,
    _norms,
    _nullity,
    _refine_roots,
    adjoint_coordinate,
    eigentriple,
    exp_integral,
    generator_eigenvalues,
    refine_root,
)

PI_2 = np.pi / 2

LINEAR_DELAY_SRC = 'name="lin"\ndim=1\nparameters=[]\ntau_max=2\ndelays=["0","1"]\nrhs=["0 - x1@2"]\n'
NO_DELAY_SRC = 'name="ode"\ndim=1\nparameters=[]\ntau_max=1\ndelays=["0"]\nrhs=["x1@1"]\n'


def apply_linearization(lin, f):
    """A[f] = sum_j A_j f(-tau_j) for an ExpPoly f, one delay at a time."""
    return sum(Aj @ f.eval(-tau) for Aj, tau in zip(lin.A, lin.taus))


@pytest.fixture(scope="module")
def scalar_lin(scalar_model):
    return linearize(scalar_model, [-PI_2], [-PI_2])


class TestLinearize:
    def test_scalar_model(self, scalar_lin):
        assert scalar_lin.A[0][0, 0] == pytest.approx(0.0, abs=1e-9)
        assert scalar_lin.A[1][0, 0] == pytest.approx(-1.0, abs=1e-9)
        assert scalar_lin.taus == pytest.approx((0.0, PI_2))

    def test_constant_delay_model(self):
        m = parse_model(LINEAR_DELAY_SRC)
        lin = linearize(m, [], [0.0])
        assert lin.A[1][0, 0] == pytest.approx(-1.0, abs=1e-10)
        assert lin.taus[1] == 1.0

    def test_position_control_rows(self, poscontrol_model, poscontrol_ref):
        params = poscontrol_model.params_from(poscontrol_ref)
        lin = linearize(poscontrol_model, params, [4.0, 4.0])
        # x-equation sees only s(t - tau0), with weight -k c / 2
        assert lin.A[1][0, 1] == pytest.approx(-1.0, abs=1e-8)
        assert np.max(np.abs(lin.A[0][0, :])) < 1e-8
        assert lin.A[2][0, :] == pytest.approx([0.0, 0.0], abs=1e-8)
        assert lin.A[3][0, :] == pytest.approx([0.0, 0.0], abs=1e-8)

    def test_rejects_non_equilibrium(self, scalar_model):
        with pytest.raises(NumericalError, match="equilibrium"):
            linearize(scalar_model, [-PI_2], [-1.0])


class TestCharMatrix:
    def test_critical_value(self, scalar_lin):
        assert abs(char_matrix(scalar_lin, 1j)[0, 0]) < 1e-9

    def test_at_zero_and_two_i(self, scalar_lin):
        assert char_matrix(scalar_lin, 0.0)[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert char_matrix(scalar_lin, 2j)[0, 0] == pytest.approx(-1.0 + 2j, abs=1e-9)

    def test_derivative(self, scalar_lin):
        assert char_matrix_deriv(scalar_lin, 1j)[0, 0] == pytest.approx(
            1.0 + 1j * PI_2, abs=1e-9
        )

    def test_conjugate_symmetry(self, scalar_lin):
        lam = 0.3 + 1.7j
        a = char_matrix(scalar_lin, np.conj(lam))
        b = np.conj(char_matrix(scalar_lin, lam))
        assert np.allclose(a, b, atol=1e-15)


class TestCharacteristicRoots:
    def test_scalar_contains_critical_pair(self, scalar_lin):
        roots = characteristic_roots(scalar_lin, count=6)
        lams = [z for z, _ in roots]
        assert min(abs(z - 1j) for z in lams) < 1e-9
        assert min(abs(z + 1j) for z in lams) < 1e-9
        for lam, _ in roots:
            _, q, res = refine_root(scalar_lin, lam)
            assert res <= 1e-10

    def test_lambert_branch(self):
        m = parse_model(LINEAR_DELAY_SRC)
        lin = linearize(m, [], [0.0])
        roots = characteristic_roots(lin, count=2)
        expected = complex(scipy.special.lambertw(-1.0, 0))
        best = min((z for z, _ in roots), key=lambda z: abs(z - np.conj(expected)))
        assert abs(best - np.conj(expected)) < 1e-10 or abs(best - expected) < 1e-10

    def test_no_delay_single_root(self):
        m = parse_model(NO_DELAY_SRC)
        lin = linearize(m, [], [0.0])
        roots = characteristic_roots(lin, count=1)
        assert len(roots) == 1
        assert roots[0][0] == pytest.approx(1.0, abs=1e-12)
        assert roots[0][1] == 1

    def test_conjugate_closure(self, poscontrol_model, poscontrol_ref):
        params = poscontrol_model.params_from(poscontrol_ref)
        lin = linearize(poscontrol_model, params, [4.0, 4.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            roots = characteristic_roots(lin, count=6, re_cutoff=3.0)
        lams = [z for z, _ in roots]
        for z in lams:
            if abs(z.imag) > 1e-9:
                assert min(abs(w - np.conj(z)) for w in lams) < 1e-12

    def test_seed_count_stability(self, scalar_lin):
        a = characteristic_roots(scalar_lin, count=4, cheb_nodes=32)
        b = characteristic_roots(scalar_lin, count=4, cheb_nodes=48)
        for (za, _), (zb, _) in zip(a, b):
            assert abs(za - zb) <= 1e-9


# sha256 of characteristic_roots' roots (little-endian complex128) followed by
# their multiplicities (little-endian int64), keyed by (model, setting, count,
# re_cutoff). The first four are the criterion-6 equilibria that the benchmark's
# spectral_projection workload visits at seed 0, at its count and cutoff; the
# last three are the scalar model at the default count and cutoff. The bytes
# depend on the libm and LAPACK numpy runs on; they pin the root finder's
# output across refactors on one platform.
ROOT_GOLDEN = {
    ("scalar_nested", -1.7, 6, 3.0): "fdbf67db97c0bcc3e9856e29563651a6ae00d9284615fc72a8a87342866e22e0",
    ("scalar_nested", -1.9, 6, 3.0): "b67470bf7f31e226e112b62f366ec428453cb25252388d8f6b15f47afcd8618e",
    ("position_control", (0.6, 2.0), 6, 3.0): "fa4822e6db5e741c7327a9fdae15f46dfca61913bb9a1a18fb351cec0febfb63",
    ("position_control", (1.0, 4.0), 6, 3.0): "f3f797d315db592dde084debe2ae72d6fbe0566ead88ab535febb5103154d2c8",
    ("scalar_nested", -1.9, 8, 2.0): "ca7a72084f0e16fb5f30d614e8c6144eb90c4ea95a34a0463c80b614f0ec57c8",
    ("scalar_nested", -PI_2, 8, 2.0): "3cc22b60ce2fabe9393f7bc17a3b3c4e7066ed32a65d90ef162c685f08efeb52",
    ("scalar_nested", -1.2, 8, 2.0): "77aa1f21addc65881dffe4b6a3f761336019f159e1749aaca4ac2d06ca529f2d",
}


def _equilibrium_lin(model, setting):
    """Linearization at the scalar model's p = setting or at position_control's
    (tau0, s0) = setting with k = 1, c = 2, gamma = 1."""
    if model.name == "scalar_nested":
        params, guess = model.params_from({"p": setting}), [setting]
    else:
        tau0, s0 = setting
        params = model.params_from({"tau0": tau0, "s0": s0, "k": 1.0, "c": 2.0, "gamma": 1.0})
        guess = [s0, s0]
    return linearize(model, params, solve_equilibrium(model, params, np.array(guess)))


# The same roots and multiplicities as computed from the slot-wise central-difference
# linearization that exact slot derivatives replaced (its A_j were off by up to
# 4e-11), as repr floats: the exact roots must stay within 1e-10 relative of them.
ROOT_FD = {
    ("scalar_nested", -1.7, 6, 3.0): [
        ((0.0331454304238507+0.9446295424372292j), 1),
        ((0.0331454304238507-0.9446295424372292j), 1),
        ((-0.896757440624462+4.504391708591651j), 1),
        ((-0.896757440624462-4.504391708591651j), 1),
        ((-1.2463717411490394+8.227542540945608j), 1),
        ((-1.2463717411490394-8.227542540945608j), 1),
    ],
    ("scalar_nested", -1.9, 6, 3.0): [
        ((0.07156162651749204+0.8699329519969496j), 1),
        ((0.07156162651749204-0.8699329519969496j), 1),
        ((-0.743357080383225+4.037854248310097j), 1),
        ((-0.743357080383225-4.037854248310097j), 1),
        ((-1.0563188520834474+7.36564556979498j), 1),
        ((-1.0563188520834474-7.36564556979498j), 1),
    ],
    ("position_control", (0.6, 2.0), 6, 3.0): [
        ((-0.11330669201576696+0.8206904764217162j), 1),
        ((-0.11330669201576696-0.8206904764217162j), 1),
        ((-0.5887230474126987+2.90082268257739j), 1),
        ((-0.5887230474126987-2.90082268257739j), 1),
        ((-0.9325354127582989+5.312168963755769j), 1),
        ((-0.9325354127582989-5.312168963755769j), 1),
    ],
    ("position_control", (1.0, 4.0), 6, 3.0): [
        ((-0.0037079494204400043+0.5170536734833144j), 1),
        ((-0.0037079494204400043-0.5170536734833144j), 1),
        ((-0.13490362592649796+1.5461222896633873j), 1),
        ((-0.13490362592649796-1.5461222896633873j), 1),
        ((-0.3353224921209307+2.752202455523224j), 1),
        ((-0.3353224921209307-2.752202455523224j), 1),
    ],
    ("scalar_nested", -1.9, 8, 2.0): [
        ((0.07156162651749204+0.8699329519969496j), 1),
        ((0.07156162651749204-0.8699329519969496j), 1),
        ((-0.743357080383225+4.037854248310097j), 1),
        ((-0.743357080383225-4.037854248310097j), 1),
        ((-1.0563188520834474+7.36564556979498j), 1),
        ((-1.0563188520834474-7.36564556979498j), 1),
        ((-1.2503983944827777+10.686248351619735j), 1),
        ((-1.2503983944827777-10.686248351619735j), 1),
    ],
    ("scalar_nested", -PI_2, 8, 2.0): [
        ((-1.5609923076365106e-11+0.9999999999900651j), 1),
        ((-1.5609923076365106e-11-0.9999999999900651j), 1),
        ((-1.0213233161528052+4.868353806074707j), 1),
        ((-1.0213233161528052-4.868353806074707j), 1),
        ((-1.3995083847071217+8.900713649340714j), 1),
        ((-1.3995083847071217-8.900713649340714j), 1),
        ((-1.6340144665085052+12.919910264740006j), 1),
        ((-1.6340144665085052-12.919910264740006j), 1),
    ],
    ("scalar_nested", -1.2, 8, 2.0): [
        ((-0.15871915756079286+1.199352945995334j), 1),
        ((-0.15871915756079286-1.199352945995334j), 1),
        ((-1.5641210035109674+6.343528518276239j), 1),
        ((-1.5641210035109674-6.343528518276239j), 1),
    ],
}


def _pinned_roots(key, scalar_model, poscontrol_model):
    name, setting, count, cutoff = key
    lin = _equilibrium_lin(scalar_model if name == "scalar_nested" else poscontrol_model, setting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return characteristic_roots(lin, count=count, re_cutoff=cutoff)


class TestRootBytes:
    @pytest.mark.parametrize("key", list(ROOT_GOLDEN))
    def test_roots_are_pinned(self, key, scalar_model, poscontrol_model):
        roots = _pinned_roots(key, scalar_model, poscontrol_model)
        data = (np.array([z for z, _ in roots], dtype="<c16").tobytes()
                + np.array([k for _, k in roots], dtype="<i8").tobytes())
        assert hashlib.sha256(data).hexdigest() == ROOT_GOLDEN[key]

    @pytest.mark.parametrize("key", list(ROOT_FD))
    def test_roots_match_the_difference_linearization(self, key, scalar_model, poscontrol_model):
        roots = _pinned_roots(key, scalar_model, poscontrol_model)
        assert [k for _, k in roots] == [k for _, k in ROOT_FD[key]]
        for (z, _), (z_fd, _) in zip(roots, ROOT_FD[key]):
            assert abs(z - z_fd) <= 1e-10 * abs(z_fd)


CRITERION6 = [("scalar_nested", p) for p in (-1.2, -1.4, -PI_2, -1.7, -1.9)] + [
    ("position_control", setting)
    for setting in ((0.6, 2.0), (0.8, 3.0), (1.0, 4.0), (1.2, 4.5), (1.4, 5.0))
]


def _outcome(result):
    """A refinement result as comparable bytes, or its error message."""
    if isinstance(result, ConvergenceError):
        return str(result)
    lam, q, residual = result
    return np.complex128(lam).tobytes(), q.tobytes(), np.float64(residual).tobytes()


class TestBatchedRefinement:
    @pytest.mark.parametrize("name,setting", CRITERION6)
    def test_batch_matches_batch_of_one(self, name, setting, scalar_model, poscontrol_model):
        lin = _equilibrium_lin(scalar_model if name == "scalar_nested" else poscontrol_model,
                               setting)
        seeds = generator_eigenvalues(lin)
        seeds = seeds[seeds.real >= -3.5]   # the seeds characteristic_roots refines at cutoff 3
        batch = _refine_roots(lin, seeds)
        assert len(batch) == len(seeds)
        for seed, result in zip(seeds, batch):
            try:
                alone = refine_root(lin, seed)
            except ConvergenceError as err:
                alone = err
            assert _outcome(result) == _outcome(alone)

    def test_singular_member_is_retired_alone(self):
        # Delta(lam) = lam + exp(-lam): at lam = 0, q = 1 the bordered matrix
        # [[1, 0], [1, 0]] is exactly singular
        lin = Linearization((np.array([[0.0]]), np.array([[-1.0]])), (0.0, 1.0),
                            np.zeros(0), np.zeros(1))
        first, second = _refine_roots(lin, [0.0, -0.3 + 1.3j])
        assert isinstance(first, ConvergenceError)
        assert str(first) == "singular bordered system at lambda=0+0j"
        lam, q, residual = second
        assert abs(lam - (-0.318131505204737 + 1.33723570143066j)) <= 1e-14
        assert residual <= 1e-12 and abs(np.linalg.norm(q) - 1.0) <= 1e-15
        with pytest.raises(ConvergenceError, match="singular bordered system at lambda=0"):
            refine_root(lin, 0.0)

    def test_no_seed_above_the_cutoff(self, scalar_lin):
        assert _refine_roots(scalar_lin, []) == []
        assert characteristic_roots(scalar_lin, count=2, re_cutoff=-50.0) == []


def _refine_roots_absolute(lin, seeds, max_iter=40):
    """The batched bordered Newton with the absolute stop test only (residual
    below 1e-13): the oracle for the roundoff-floor stop test. It has no
    singular-system fallback; no criterion-6 seed needs one."""
    n = lin.n
    lam = np.array(seeds, dtype=complex)
    q = np.linalg.svd(char_matrix(lin, lam))[2][:, -1].conj()
    cc = q.conj()
    out, live = [None] * lam.size, np.arange(lam.size)
    for _ in range(max_iter):
        D = char_matrix(lin, lam[live])
        r = np.concatenate([D @ q[live, :, None], cc[live, None] @ q[live, :, None] - 1.0], axis=1)
        go = ~(np.max(np.abs(r), axis=(1, 2)) < 1e-13)
        live, D, r = live[go], D[go], r[go]
        if not live.size:
            break
        J = np.zeros((live.size, n + 1, n + 1), dtype=complex)
        J[:, :n, :n] = D
        J[:, :n, n:] = char_matrix_deriv(lin, lam[live]) @ q[live, :, None]
        J[:, n, :n] = cc[live]
        delta = np.linalg.solve(J, -r)
        q[live] = q[live] + delta[:, :n, 0]
        lam[live] = lam[live] + delta[:, n, 0]
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    res = np.linalg.norm(char_matrix(lin, lam) @ q[:, :, None], axis=(1, 2))
    return [ConvergenceError(f"stalled near {lam[k]:.6g}") if res[k] > 1e-10
            else (complex(lam[k]), q[k], float(res[k])) for k in range(lam.size)]


def _count_steps(monkeypatch):
    """Stacked Newton steps of _refine_roots: each evaluates _delta_pair once, and
    so does the last pass of a call's loop, where every seed has stopped, so the
    count is an upper bound. char_matrix keeps the uncounted kernel."""
    steps, inner = [], spectral._delta_pair

    def counted(lin, lam):
        steps.append(np.size(lam))
        return inner(lin, lam)

    monkeypatch.setattr(spectral, "_delta_pair", counted)
    monkeypatch.setattr(spectral, "char_matrix", lambda lin, lam: inner(lin, lam)[0])
    return steps


class TestRoundoffFloorStop:
    @pytest.mark.parametrize("name,setting", CRITERION6)
    def test_same_fate_as_the_absolute_stop(self, name, setting, scalar_model, poscontrol_model):
        lin = _equilibrium_lin(scalar_model if name == "scalar_nested" else poscontrol_model,
                               setting)
        seeds = generator_eigenvalues(lin)
        for seed, got, ref in zip(seeds, _refine_roots(lin, seeds),
                                  _refine_roots_absolute(lin, seeds)):
            assert isinstance(got, ConvergenceError) == isinstance(ref, ConvergenceError), seed
            if not isinstance(got, ConvergenceError):
                assert abs(got[0] - ref[0]) <= 1e-14 * abs(ref[0])
                assert got[2] <= 1e-10

    def test_converged_seeds_stop_at_the_floor(self, scalar_model, monkeypatch):
        lin = _equilibrium_lin(scalar_model, -1.5)
        steps = _count_steps(monkeypatch)
        characteristic_roots(lin, count=6, re_cutoff=2.0)
        assert 0 < len(steps) <= 8   # 40 with the absolute stop alone


def _walk_whole_prefix(lin, count, re_cutoff, cheb_nodes=32):
    """characteristic_roots as a plain walk: the stop at 4*count roots, every
    seed with Re >= -re_cutoff - 0.5 refined in one batch, the dedup as a
    generator over the roots found, and no memo. Returns (roots, warning
    messages)."""
    seeds = generator_eigenvalues(lin, cheb_nodes)
    seeds = seeds[np.lexsort((-seeds.imag, -seeds.real))]
    seeds = seeds[: np.count_nonzero(seeds.real >= -re_cutoff - 0.5)]
    found, messages = [], []
    for seed, result in zip(seeds, _refine_roots(lin, seeds)):
        if len(found) >= 4 * count:
            break
        if isinstance(result, ConvergenceError):
            messages.append(f"dropped root seed {seed:.4g}: {result}")
            continue
        lam = result[0]
        if lam.real < -re_cutoff:
            continue
        if any(abs(lam - other) < 1e-8 * (1.0 + abs(other)) for other in found):
            continue
        found.append(lam)
        if abs(lam.imag) > 1e-9:
            found.append(lam.conjugate())
    found.sort(key=lambda z: (-z.real, abs(z.imag), -np.sign(z.imag)))
    found = found[:count] if len(found) > count else found
    if found and abs(found[-1].imag) > 1e-9 and found[-1].conjugate() not in found:
        found.append(found[-1].conjugate())
        found.sort(key=lambda z: (-z.real, abs(z.imag), -np.sign(z.imag)))
    if len(found) < count:
        messages.append(f"requested {count} roots, found {len(found)}")
    roots = [(lam, int(k)) for lam, k in zip(found, _nullity(char_matrix(lin, found)))]
    return roots, messages


def _roots_and_messages(lin, count, cutoff):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        roots = characteristic_roots(lin, count=count, re_cutoff=cutoff)
    return roots, [str(w.message) for w in caught]


def _root_bytes(roots):
    return (np.array([z for z, _ in roots], dtype="<c16").tobytes(),
            [k for _, k in roots])


def _assert_same_as_plain_walk(lin, count, cutoff):
    """The same roots, bit for bit, multiplicities and warnings as the plain
    walk on a twin of lin."""
    twin = Linearization(lin.A, lin.taus, lin.params, lin.xstar)
    roots, messages = _roots_and_messages(lin, count, cutoff)
    ref_roots, ref_messages = _walk_whole_prefix(twin, count, cutoff)
    assert _root_bytes(roots) == _root_bytes(ref_roots)
    assert messages == ref_messages


@st.composite
def constant_delay_lins(draw):
    """A Linearization with n = 1..3, one to four delays in (0, 10] and entries in [-2, 2]."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    entry = st.floats(-2.0, 2.0, allow_nan=False)
    A = tuple(np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)
              for _ in range(m + 1))
    taus = (0.0,) + tuple(draw(st.floats(0.05, 10.0)) for _ in range(m))
    return Linearization(A, taus, np.zeros(0), np.zeros(n))


class TestPlainWalk:
    """characteristic_roots returns what the plain walk over every seed above
    the cutoff returns."""

    @pytest.mark.parametrize("count,cutoff", [(6, 3.0), (12, 3.2), (24, 3.0)])
    @pytest.mark.parametrize("name,setting", CRITERION6)
    def test_criterion6_roots_match_the_plain_walk(self, name, setting, count, cutoff,
                                                   scalar_model, poscontrol_model):
        lin = _equilibrium_lin(scalar_model if name == "scalar_nested" else poscontrol_model,
                               setting)
        _assert_same_as_plain_walk(lin, count, cutoff)

    @given(lin=constant_delay_lins(), count=st.integers(2, 12), cutoff=st.floats(1.0, 3.0))
    @settings(max_examples=60)
    def test_random_roots_match_the_plain_walk(self, lin, count, cutoff):
        _assert_same_as_plain_walk(lin, count, cutoff)


class TestRootArguments:
    @pytest.mark.parametrize("kwargs, message", [
        ({"cheb_nodes": 0}, "cheb_nodes must be at least 1"),
        ({"re_cutoff": float("nan")}, "re_cutoff must be finite"),
        ({"re_cutoff": "2"}, "re_cutoff must be finite"),
        ({"count": 2.5}, "count must be an integer"),
        ({"cheb_nodes": 32.0}, "cheb_nodes must be an integer"),
    ])
    def test_bad_arguments_are_refused(self, scalar_lin, kwargs, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SdddeError, match=message):
                characteristic_roots(scalar_lin, **kwargs)
        assert not caught


def _char_matrix_loop(lin, lam):
    """lambda I - sum_j A_j e^{-lam tau_j}, as char_matrix once computed it alone."""
    lam = np.asarray(lam)[..., None, None]
    out = lam * np.eye(lin.n, dtype=complex)
    for Aj, tau in zip(lin.A, lin.taus):
        out = out - Aj * np.exp(-lam * tau)
    return out


def _char_matrix_deriv_loop(lin, lam):
    """I + sum_j tau_j A_j e^{-lam tau_j}, as char_matrix_deriv once computed it alone."""
    lam = np.asarray(lam)[..., None, None]
    out = np.eye(lin.n, dtype=complex)
    for Aj, tau in zip(lin.A, lin.taus):
        out = out + tau * Aj * np.exp(-lam * tau)
    return out


LAMBDAS = st.lists(st.one_of(
    st.just(0j),
    st.floats(-50.0, 50.0).map(lambda w: complex(0.0, w)),
    st.builds(complex, st.floats(-5.0, 5.0), st.floats(-50.0, 50.0)),
), min_size=1, max_size=6)


class TestDeltaPair:
    """Delta and Delta' from one exponential per slot keep the bits of the
    separate loops that computed them before."""

    @staticmethod
    def _assert_bits(lin, lams):
        for lam in (np.array(lams), lams[0]):
            D, dD = _delta_pair(lin, lam)
            assert D.tobytes() == _char_matrix_loop(lin, lam).tobytes()
            assert dD.tobytes() == _char_matrix_deriv_loop(lin, lam).tobytes()

    @given(index=st.integers(0, len(CRITERION6) - 1), lams=LAMBDAS)
    @settings(max_examples=40)
    def test_bundled_models(self, index, lams, scalar_model, poscontrol_model):
        name, setting = CRITERION6[index]
        lin = _equilibrium_lin(scalar_model if name == "scalar_nested" else poscontrol_model,
                               setting)
        self._assert_bits(lin, lams)

    @given(lin=constant_delay_lins(), lams=LAMBDAS)
    @settings(max_examples=40)
    def test_random_linearizations(self, lin, lams):
        self._assert_bits(lin, lams)


def test_row_norms_match_linalg_norm():
    rng = np.random.default_rng(7)
    for n in range(1, 5):
        x = (rng.standard_normal((2000, n)) + 1j * rng.standard_normal((2000, n))) \
            * 10.0 ** rng.uniform(-6, 6, (2000, 1))
        for rows in (x, x[::3], np.asfortranarray(x)):
            assert _norms(rows).tobytes() == np.array([np.linalg.norm(v) for v in rows]).tobytes()


class TestRootMemo:
    SETTING = (1.0, 4.0)    # position_control: 23 roots and two dropped seeds at cutoff 3

    @staticmethod
    def _roots(lin, count, cutoff, cheb_nodes=32):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            roots = characteristic_roots(lin, count=count, re_cutoff=cutoff, cheb_nodes=cheb_nodes)
        return np.array([z for z, _ in roots]), [k for _, k in roots], [str(w.message) for w in caught]

    def _assert_fresh(self, model, lin, count, cutoff, cheb_nodes=32):
        lams, mult, msgs = self._roots(lin, count, cutoff, cheb_nodes)
        ref_lams, ref_mult, ref_msgs = self._roots(_equilibrium_lin(model, self.SETTING),
                                                   count, cutoff, cheb_nodes)
        assert np.array_equal(lams, ref_lams) and mult == ref_mult and msgs == ref_msgs

    def test_calls_match_a_fresh_linearization(self, poscontrol_model):
        lin = _equilibrium_lin(poscontrol_model, self.SETTING)
        for count, cutoff in ((6, 1.0), (24, 3.0), (12, 2.0), (24, 3.0), (4, 0.2), (30, 4.0)):
            self._assert_fresh(poscontrol_model, lin, count, cutoff)
        assert any(m.startswith("dropped root seed") for m in self._roots(lin, 24, 3.0)[2])

    @staticmethod
    def _record(monkeypatch, name, lin):
        """Seeds or cheb_nodes of every call of spectral.<name> on lin."""
        calls, inner = [], getattr(spectral, name)

        def recorded(of, arg, *rest):
            if of is lin:
                calls.append(arg)
            return inner(of, arg, *rest)

        monkeypatch.setattr(spectral, name, recorded)
        return calls

    def test_smaller_cutoff_does_no_root_work(self, poscontrol_model, monkeypatch):
        lin = _equilibrium_lin(poscontrol_model, self.SETTING)
        self._roots(lin, 24, 3.0)
        calls = [self._record(monkeypatch, name, lin)
                 for name in ("generator_eigenvalues", "_refine_roots")]
        for count, cutoff in ((24, 3.0), (6, 2.0), (12, -0.5)):
            self._assert_fresh(poscontrol_model, lin, count, cutoff)
        assert calls == [[], []]

    def test_larger_cutoff_refines_only_the_new_seeds(self, poscontrol_model, monkeypatch):
        lin = _equilibrium_lin(poscontrol_model, self.SETTING)
        seeds = generator_eigenvalues(lin)
        seeds = seeds[np.lexsort((-seeds.imag, -seeds.real))]
        refined = self._record(monkeypatch, "_refine_roots", lin)
        for cutoff in (1.0, 3.0):
            self._assert_fresh(poscontrol_model, lin, 24, cutoff)
        k1, k2 = (np.count_nonzero(seeds.real >= -c - 0.5) for c in (1.0, 3.0))
        assert 0 < k1 < k2 and len(refined) == 2
        assert np.array_equal(refined[0], seeds[:k1]) and np.array_equal(refined[1], seeds[k1:k2])

    def test_cheb_nodes_keep_separate_entries(self, poscontrol_model):
        lin = _equilibrium_lin(poscontrol_model, self.SETTING)
        for nodes in (32, 48, 32, 48):
            self._assert_fresh(poscontrol_model, lin, 12, 3.0, cheb_nodes=nodes)
        assert sorted(lin._seeds) == [32, 48]

    def test_equality_is_identity_and_repr_ignores_the_memo(self, poscontrol_model):
        # built separately, so no array is shared: == compares no arrays and
        # hash() works, and neither touches the memo
        lin = _equilibrium_lin(poscontrol_model, self.SETTING)
        twin = _equilibrium_lin(poscontrol_model, self.SETTING)
        shared = Linearization(lin.A, lin.taus, lin.params, lin.xstar)
        text = repr(lin)
        self._roots(lin, 24, 3.0)
        assert lin._seeds and not twin._seeds and not shared._seeds
        assert lin == lin and lin != twin and lin != shared
        assert len({lin, twin, shared, lin}) == 3 and hash(lin) == hash(lin)
        assert repr(lin) == repr(twin) == repr(shared) == text
        assert "_seeds" not in text
        self._assert_fresh(poscontrol_model, lin, 24, 3.0)
        assert not twin._seeds


class TestPrefixIndependence:
    """characteristic_roots refines seed prefixes piecewise: refining a list
    in two parts must give bit for bit what refining it whole gives."""

    @staticmethod
    def _assert_splits(lin, seeds):
        whole = [_outcome(r) for r in _refine_roots(lin, seeds)]
        for k in range(len(seeds) + 1):
            parts = _refine_roots(lin, seeds[:k]) + _refine_roots(lin, seeds[k:])
            assert [_outcome(r) for r in parts] == whole, k

    @pytest.mark.parametrize("name,setting", [("scalar_nested", -1.7), ("position_control", (1.0, 4.0))])
    def test_split_refinement_matches_whole(self, name, setting, scalar_model, poscontrol_model):
        lin = _equilibrium_lin(scalar_model if name == "scalar_nested" else poscontrol_model,
                               setting)
        seeds = generator_eigenvalues(lin)
        self._assert_splits(lin, seeds[np.lexsort((-seeds.imag, -seeds.real))])

    def test_singular_member_splits(self):
        lin = Linearization((np.array([[0.0]]), np.array([[-1.0]])), (0.0, 1.0),
                            np.zeros(0), np.zeros(1))
        self._assert_splits(lin, np.array([0.0, -0.3 + 1.3j, 0.5j]))


class TestHopfEigendata:
    def test_scalar_values(self, scalar_lin):
        eig = hopf_eigendata(scalar_lin, 1.0)
        assert eig.omega == pytest.approx(1.0, abs=1e-9)
        assert eig.q0[0] == pytest.approx(1.0, abs=1e-9)
        assert eig.p0[0].real == pytest.approx(0.2884, abs=5e-5)
        assert eig.p0[0].imag == pytest.approx(-0.4530, abs=5e-5)

    def test_normalization_enforced(self, poscontrol_model, poscontrol_ref):
        params = poscontrol_model.params_from(poscontrol_ref)
        lin = linearize(poscontrol_model, params, [4.0, 4.0])
        eig = hopf_eigendata(lin, 0.5)
        val = eig.p0 @ char_matrix_deriv(lin, eig.lam) @ eig.q0
        assert abs(val - 1.0) < 1e-12
        k = int(np.argmax(np.abs(eig.q0)))
        assert abs(eig.q0[k].imag) < 1e-12 and eig.q0[k].real > 0

    def test_non_semisimple_rejected(self):
        # companion matrix of (lam^2 + 1)^2: double root at +-i, one eigenvector
        C = np.zeros((4, 4))
        C[0, 1] = C[1, 2] = C[2, 3] = 1.0
        C[3, :] = [-1.0, 0.0, -2.0, 0.0]
        lin = Linearization((C,), (0.0,), np.zeros(0), np.zeros(4))
        with pytest.raises(DegenerateEigenvalueError, match="non-semisimple"):
            hopf_eigendata(lin, 1.0)

    def test_semisimple_double_pair_rejected(self):
        # diag(R, R) with R the rotation by +-i: nullity 2 at i, and any unit vector
        # of the eigenspace would pass the |p Delta' q| test alone
        R = np.array([[0.0, -1.0], [1.0, 0.0]])
        A = np.block([[R, np.zeros((2, 2))], [np.zeros((2, 2)), R]])
        lin = Linearization((A,), (0.0,), np.zeros(0), np.zeros(4))
        with pytest.raises(DegenerateEigenvalueError, match="not simple: Delta has nullity 2"):
            hopf_eigendata(lin, 1.0)
        with pytest.raises(DegenerateEigenvalueError, match="nullity 2"):
            eigentriple(char_matrix(lin, 1j), char_matrix_deriv(lin, 1j))

    def test_eigendata_is_the_eigentriple_of_the_refined_root(self, poscontrol_model,
                                                               poscontrol_ref):
        lin = linearize(poscontrol_model, poscontrol_model.params_from(poscontrol_ref), [4.0, 4.0])
        eig = hopf_eigendata(lin, 0.5)
        q, p = eigentriple(char_matrix(lin, eig.lam), char_matrix_deriv(lin, eig.lam))
        assert np.array_equal(q, eig.q0) and np.array_equal(p, eig.p0)
        assert eig.residuals["real_part"] == abs(refine_root(lin, 0.5j)[0].real)


class TestResolventProjection:
    def _test_function(self):
        return combine(
            1.0,
            ExpPoly.exponential([0.7 - 0.2j], 0.3 + 0.9j),
            1.0,
            ExpPoly.exponential([0.1 + 0.4j], -0.2 - 1.1j, power=2),
        )

    def test_resolvent_solves_defining_system(self, scalar_lin):
        v = self._test_function()
        lam = 0.5 + 0.7j
        x = resolvent_apply(scalar_lin, lam, v)
        residual = combine(lam, x, -1.0, x.derivative())
        for theta in np.linspace(-3.0, 0.0, 9):
            assert np.max(np.abs(residual.eval(theta) - v.eval(theta))) < 1e-12
        boundary = lam * x.eval(0.0) - apply_linearization(scalar_lin, x) - v.eval(0.0)
        assert np.max(np.abs(boundary)) < 1e-12

    def test_resolvent_rejects_roots(self, scalar_lin):
        with pytest.raises(NumericalError, match="characteristic root"):
            resolvent_apply(scalar_lin, 1j, self._test_function())

    def test_projection_fixes_eigenfunction(self, scalar_lin):
        eig = hopf_eigendata(scalar_lin, 1.0)
        q = eigenfunction(eig)
        pq = spectral_projection(scalar_lin, [1j, -1j], q)
        for theta in np.linspace(-3.0, 0.0, 9):
            assert np.max(np.abs(pq.eval(theta) - q.eval(theta))) < 1e-8

    def test_projection_idempotent(self, scalar_lin):
        v = self._test_function()
        pv = spectral_projection(scalar_lin, [1j, -1j], v)
        ppv = spectral_projection(scalar_lin, [1j, -1j], pv)
        for theta in np.linspace(-3.0, 0.0, 9):
            assert np.max(np.abs(ppv.eval(theta) - pv.eval(theta))) < 1e-8

    def test_projection_matches_adjoint_formula(self, scalar_lin):
        eig = hopf_eigendata(scalar_lin, 1.0)
        v = self._test_function()
        c1 = adjoint_coordinate(scalar_lin, eig.lam, eig.p0, v)
        c2 = adjoint_coordinate(scalar_lin, -eig.lam, eig.p0.conj(), v)
        q = eigenfunction(eig)
        viaresidue = combine(c1, q, c2, q.conjugate())
        pv = spectral_projection(scalar_lin, [1j, -1j], v)
        for theta in np.linspace(-3.0, 0.0, 9):
            assert np.max(np.abs(viaresidue.eval(theta) - pv.eval(theta))) < 1e-8

    def test_coordinates_are_cartesian_on_basis(self, scalar_lin):
        eig = hopf_eigendata(scalar_lin, 1.0)
        q = eigenfunction(eig)
        c1 = adjoint_coordinate(scalar_lin, eig.lam, eig.p0, q)
        c2 = adjoint_coordinate(scalar_lin, -eig.lam, eig.p0.conj(), q)
        assert abs(c1 - 1.0) < 1e-10 and abs(c2) < 1e-10
        d1 = adjoint_coordinate(scalar_lin, eig.lam, eig.p0, q.conjugate())
        d2 = adjoint_coordinate(scalar_lin, -eig.lam, eig.p0.conj(), q.conjugate())
        assert abs(d1) < 1e-10 and abs(d2 - 1.0) < 1e-10

    def test_projection_rank_matches_enclosed_roots(self, scalar_lin):
        rng = np.random.default_rng(3)
        columns = []
        for _ in range(5):
            c = rng.normal() + 1j * rng.normal()
            mu = rng.uniform(-0.5, 0.3) + 1j * rng.uniform(0.2, 2.5)
            v = ExpPoly.exponential([c], mu)
            pv = spectral_projection(scalar_lin, [1j, -1j], v)
            columns.append([pv.eval(t)[0] for t in np.linspace(-2.0, 0.0, 21)])
        rank = np.linalg.matrix_rank(np.array(columns).T, tol=1e-8)
        assert rank == 2

    @pytest.mark.parametrize("critical, message", [
        ([], "needs at least one critical root"),
        ([1j, np.nan + 1j], r"critical root nan\+1j is not finite"),
        ([complex(np.inf, 1.0)], r"critical root inf\+1j is not finite"),
    ])
    def test_bad_critical_roots_are_refused(self, scalar_lin, critical, message, monkeypatch):
        def no_root_work(*args, **kwargs):
            raise AssertionError("root work before the refusal")

        monkeypatch.setattr(spectral, "characteristic_roots", no_root_work)
        v = ExpPoly.exponential([0.7 - 0.2j], 0.3 + 0.9j)
        with pytest.raises(NumericalError, match=message):
            spectral_projection(scalar_lin, critical, v)

    def test_oversized_contour_detected(self, scalar_lin):
        # radius large enough to also enclose the next root pair
        v = self._test_function()
        with pytest.raises(NumericalError, match="extra roots"):
            spectral_projection(scalar_lin, [1j, -1j], v, radius=6.0)

    def test_critical_value_off_the_root_is_named(self, scalar_lin):
        # Delta(i + 1e-5) is nonsingular: the refusal says so instead of blaming extra roots
        v = self._test_function()
        with pytest.raises(NumericalError, match=r"^1e-05\+1j is not a characteristic root: "
                                                 r"Delta is nonsingular there"):
            spectral_projection(scalar_lin, [1j + 1e-5, -1j + 1e-5], v)
        for eps in (1e-7, 1e-9):  # near enough for the moments to vanish: one term per value
            assert len(spectral_projection(scalar_lin, [1j + eps, -1j + eps], v).terms) == 2

    def test_hopf_pair_projection_has_one_term_per_root(self, scalar_lin):
        pv = spectral_projection(scalar_lin, [1j, -1j], self._test_function())
        assert sorted((power, exponent.imag) for _, power, exponent in pv.terms) == [
            (0, -1.0),
            (0, 1.0),
        ]


class TestBatchedProjection:
    """The contour nodes of a critical root are solved as one stack; these pin
    it to the node-by-node resolvent data it replaced."""

    CRITERION6 = [("scalar_nested", p) for p in (-1.2, -1.4, -PI_2, -1.7, -1.9)] + [
        ("position_control", ts) for ts in ((0.6, 2.0), (0.8, 3.0), (1.0, 4.0), (1.2, 4.5), (1.4, 5.0))
    ]

    @staticmethod
    def _direction(n):
        return combine(
            1.0,
            ExpPoly.exponential(np.linspace(0.4, 1.0, n) + 0.1j, 0.3 + 0.9j),
            1.0,
            ExpPoly.exponential(np.linspace(-0.3, 0.5, n), -0.2 - 1.1j, power=2),
        )

    @staticmethod
    def _per_node_moments(lin, z, v, rho, nodes=64, moments=8):
        """Contour moments M_k around z from one resolvent solve per node."""
        offsets = rho * np.exp(2j * np.pi * np.arange(nodes) / nodes)
        x0 = np.array([
            np.linalg.solve(char_matrix(lin, lam),
                            v.eval(0.0) + apply_linearization(lin, exp_integral(v, lam)))
            for lam in z + offsets
        ])
        return [np.mean(offsets[:, None] ** (k + 1) * x0, axis=0) for k in range(moments)]

    def _assert_matches_per_node(self, lin, critical, v, rho):
        pv = spectral_projection(lin, critical, v, radius=rho)
        moments = {z: self._per_node_moments(lin, z, v, rho) for z in critical}
        scale = max(float(np.max(np.abs(coef))) for coef, _, _ in pv.terms)
        assert {exponent for _, _, exponent in pv.terms} == set(critical)
        for coef, power, z in pv.terms:
            ref = moments[z][power] / scipy.special.factorial(power)
            assert np.max(np.abs(coef - ref)) <= 1e-13 * scale

    @pytest.mark.parametrize("name", ["scalar_nested", "position_control"])
    def test_boundary_data_matches_exp_integral(self, name, scalar_model, poscontrol_model):
        model = scalar_model if name == "scalar_nested" else poscontrol_model
        lin = _equilibrium_lin(model, -PI_2 if name == "scalar_nested" else (1.0, 4.0))
        v = self._direction(model.n)
        _, power, mu = v.terms[-1]
        far = 0.4j + 0.7 * np.exp(2j * np.pi * np.arange(16) / 16)
        lams = np.append(far, mu + 4e-7 * np.exp(0.3j))  # the last runs the series
        assert power == 2 and min(abs(e - lam) for _, _, e in v.terms for lam in far) > 0.1
        # the series of the theta^2 term reaches theta^(2 + 12)
        assert max(p for _, p, _ in exp_integral(v, lams[-1]).terms) == 14
        b = _boundary_data(lin, lams, v)
        ref = np.array([v.eval(0.0) + apply_linearization(lin, exp_integral(v, lam)) for lam in lams])
        assert np.max(np.abs(b - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.max(np.abs(b[-1] - ref[-1])) <= 1e-13 * np.max(np.abs(ref[-1]))

    @pytest.mark.parametrize("name, setting", CRITERION6)
    def test_projection_matches_per_node_loop(self, name, setting, scalar_model, poscontrol_model):
        model = scalar_model if name == "scalar_nested" else poscontrol_model
        lin = _equilibrium_lin(model, setting)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            roots = [z for z, _ in characteristic_roots(lin, count=6, re_cutoff=3.0)]
        lam = max((z for z in roots if z.imag > 1e-9), key=lambda z: z.real)
        rho = 0.5 * min(abs(w - lam) for w in roots if abs(w - lam) > 1e-8)
        self._assert_matches_per_node(lin, [lam, np.conj(lam)], self._direction(model.n), rho)

    @pytest.mark.parametrize("A", [[[-0.3, 1.0], [0.0, -0.3]], [[-0.3, 0.0], [0.0, -0.3]]],
                             ids=["jordan-block", "a-identity"])
    def test_non_simple_projection_matches_per_node_loop(self, A):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            self._assert_matches_per_node(_two_by_two(A), [-0.3], _plane_direction(), 0.5)

    def test_contour_node_on_a_root_is_refused(self, scalar_lin):
        # node 48 of the circle |lam - i| = 2 is -i, a root of the scalar model
        v = ExpPoly.exponential([0.7 - 0.2j], 0.3 + 0.9j)
        with pytest.raises(NumericalError, match="resolvent undefined: lambda=.* is a characteristic root"):
            spectral_projection(scalar_lin, [1j], v, radius=2.0)


def _two_by_two(A):
    return Linearization((np.asarray(A, dtype=float),), (0.0,), np.zeros(0), np.zeros(2))


def _plane_direction():
    return combine(
        1.0,
        ExpPoly.exponential([0.7 - 0.2j, 0.3], 0.3 + 0.9j),
        1.0,
        ExpPoly.exponential([0.1 + 0.4j, -0.5], -0.2, power=1),
    )


def _quadrature_reference(lin, z, v, rho=0.5, nodes=64):
    """P_c v as the trapezoid sum of the resolvent ExpPolys on |lam - z| = rho
    (0.5 is the default radius when no other root is near)."""
    out = ExpPoly.zero(v.dim)
    for s in range(nodes):
        w = np.exp(2j * np.pi * s / nodes)
        out = combine(1.0, out, rho * w / nodes, resolvent_apply(lin, z + rho * w, v))
    return out


class TestNonSimpleProjection:
    GRID = np.linspace(-1.0, 0.0, 11)

    def _gap(self, f, g):
        return max(float(np.max(np.abs(f.eval(t) - g.eval(t)))) for t in self.GRID)

    def test_jordan_block_keeps_its_chain(self):
        a = -0.3
        lin = _two_by_two([[a, 1.0], [0.0, a]])
        v = _plane_direction()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the root pool finds only one root
            warnings.simplefilter("error", RuntimeWarning)
            pv = spectral_projection(lin, [a], v)
            ppv = spectral_projection(lin, [a], pv)
        assert [(power, exponent) for _, power, exponent in pv.terms] == [(0, a), (1, a)]
        assert self._gap(pv, _quadrature_reference(lin, a, v)) < 1e-13
        assert self._gap(ppv, pv) < 1e-13
        # P_c v = exp(A theta) v(0) for the ODE x' = A x
        assert np.allclose(pv.terms[1][0], [v.eval(0.0)[1], 0.0], atol=1e-14)

    def test_semisimple_root_gives_one_term(self):
        a = -0.3
        lin = _two_by_two(a * np.eye(2))
        v = _plane_direction()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            pv = spectral_projection(lin, [a], v)
        assert len(pv.terms) == 1
        assert np.allclose(pv.terms[0][0], v.eval(0.0), atol=1e-14)
        assert self._gap(pv, _quadrature_reference(lin, a, v)) < 1e-13

    def test_jordan_contour_enclosing_another_root_detected(self):
        a = -0.3
        A = np.array([[a, 1.0, 0.0], [0.0, a, 0.0], [0.0, 0.0, a + 1.5]])
        lin = Linearization((A,), (0.0,), np.zeros(0), np.zeros(3))
        v = ExpPoly.exponential([0.7 - 0.2j, 0.3, 0.5], 0.3 + 0.9j)
        with pytest.raises(NumericalError, match="extra roots"):
            spectral_projection(lin, [a], v, radius=2.0)
