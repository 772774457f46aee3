"""Acceptance gate: the five repository-level criteria.

Each test prints one PASS line when its criterion holds; any assertion
failure is a criterion failure.
"""

import math

import numpy as np

import tfaug as T
from tfaug.cli import main
from tfaug.experiments import ExperimentConfig, run_experiment


def _rand_instance(rng, d):
    n = int(rng.integers(1, 5))
    X = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    ds = T.normalize_dataset(T.DataSet(tuple(X)))
    side = math.sqrt(d)
    w = float(rng.uniform(1.0, side * 0.6))
    h = float(rng.uniform(1.0, side * 0.6))
    return ds, T.make_rect_domain(d, w, h)


def test_criterion_1_identity_suite():
    """Moyal, trace, mass, purity, route-equality and cross-route identities
    on >= 50 random instances per dimension."""
    rng = np.random.default_rng(101)
    for d in (8, 16, 32):
        for _ in range(50):
            ds, dom = _rand_instance(rng, d)
            S = T.data_operator(ds)

            f, g = ds.signals[0], T.gaussian_window(d)
            moyal = T.grid_integrate(T.spectrogram(f, g))
            target = np.linalg.norm(f) ** 2 * np.linalg.norm(g) ** 2
            assert abs(moyal - target) <= 1e-10 * max(target, 1e-30)

            loc = T.mixed_state_localization(dom, S)
            assert abs(loc.trace - dom.measure) <= 1e-9

            St = T.total_correlation(S)
            assert abs(T.grid_integrate(St) - 1.0) <= 1e-8
            assert abs(St[0, 0] - np.trace(S.matrix @ S.matrix).real) <= 1e-9

            aug = T.data_operator(T.augment_dataset(dom, ds))
            assert np.max(np.abs(aug.matrix - loc.matrix / dom.measure)) <= 1e-9

            m = rng.uniform(size=(d, d))
            _, _, diff = T.conv_layer_identity(f, g, m)
            assert diff <= 1e-9

            cross = abs(
                dom.measure * T.alc(St, dom)
                - T.projection_functional_spectral(loc)
            )
            assert cross <= 1e-8
    print("ACCEPTANCE 1 (identity suite d=8,16,32 x50): PASS")


def test_criterion_2_theorem_suite():
    """Entropy sandwich, ALC lemma, finite-rank bound, perimeter bound and
    the general concave-function inequality on 50 random (S, Omega) at d=32."""
    rng = np.random.default_rng(202)
    d = 32
    failures = 0
    for _ in range(50):
        ds, dom = _rand_instance(rng, d)
        S = T.data_operator(ds)
        results = T.check_bounds(S, dom)
        c = {r.name: r for r in results}
        ok = (
            c["sandwich_lower"].slack >= -1e-7
            and c["sandwich_upper"].slack >= -1e-7
            and c["entropy_correlation"].ok
        )
        # lemma, finite rank, general Berezin-Lieb and perimeter: pass or vacuous
        if not (ok and all(r.ok for r in results)):
            failures += 1
    assert failures == 0
    print("ACCEPTANCE 2 (theorem suite d=32 x50): PASS")


def test_criterion_3_exact_values():
    rng = np.random.default_rng(303)
    d = 16
    f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    f /= np.linalg.norm(f)

    assert T.von_neumann_entropy(T.HermitianOperator(T.tensor_product(f, f))) <= 1e-10

    S_half = T.gen_hermite_pair_state(0.5, T.hermite(d, 0), T.hermite(d, 1))
    assert abs(T.von_neumann_entropy(S_half) - math.log(2)) <= 1e-9

    S = T.data_operator(T.normalize_dataset(T.DataSet((f, T.hermite(d, 0)))))
    loc = T.mixed_state_localization(T.full_domain(d), S)
    assert np.max(np.abs(loc.matrix - np.eye(d))) <= 1e-10
    H = T.von_neumann_entropy(T.HermitianOperator(loc.matrix / d))
    assert abs(H - math.log(d)) <= 1e-8

    assert T.alc(T.total_correlation(S), T.full_domain(d)) <= 1e-10
    print("ACCEPTANCE 3 (exact analytic values): PASS")


def test_criterion_4_figure_reproduction(tmp_path):
    out = str(tmp_path)

    # interpolated two-state entropies: symmetry, max ln 2, pair ordering
    tbl, rep = run_experiment(
        ExperimentConfig("hermite_interp", d=128, out=out, svg=False)
    )
    H = {r[0]: r[1] for r in tbl.rows}
    for t in (0.1, 0.25, 0.4):
        assert abs(H[t] - H[round(1 - t, 2)]) <= 1e-9
    assert abs(rep["max_H_S"] - math.log(2)) <= 1e-9
    assert rep["pair_ordering_h9_above_h1"]

    # chirp entropy/rank: H stabilizes, rank saturates, augmentation inflates
    tbl, rep = run_experiment(
        ExperimentConfig("chirp_ed", d=280, out=out, svg=False)
    )
    h300, h400 = rep["H_mean_by_N"][300], rep["H_mean_by_N"][400]
    assert abs(h400 - h300) / h300 < 0.05
    assert rep["rank_saturates_at_d"]
    assert rep["aug_exceeds_plain"]

    # domain-shape orderings for both dataset families
    _, rep = run_experiment(
        ExperimentConfig("gauss_alc", d=128, trials=20, N=50, out=out, svg=False)
    )
    assert rep["adapted_domain_wins"]
    assert rep["ed_grows_with_size"]
    _, rep = run_experiment(
        ExperimentConfig("chirp_alc", d=280, trials=12, N=50, out=out, svg=False)
    )
    assert rep["adapted_domain_wins"]
    assert rep["ed_grows_with_size"]

    # local components: mixing shifts barely moves the augmented entropy,
    # noise strictly inflates both entropies
    _, rep = run_experiment(
        ExperimentConfig("local_components", d=128, out=out, svg=False)
    )
    assert rep["noiseless_delta"] <= 0.15
    assert rep["H_S_increases_with_noise"]
    assert rep["H_aug_increases_with_noise"]

    # accumulated Hermite mixture crosses below the single state early
    _, rep = run_experiment(
        ExperimentConfig("hermite_mix", d=128, out=out, svg=False)
    )
    assert rep["crossover_n"] is not None and rep["crossover_n"] <= 8

    # concentration washes out on growing domains, vanishing near full cover
    chirp_St = T.total_correlation(T.data_operator(T.gen_chirps(150, 280, seed=0)))
    scan = T.asymptotic_alc_scan(
        chirp_St, T.make_rect_domain(280, 2.45, 2.45), [1.0, 1.5, 2.0, 3.0, 6.7]
    )
    vals = [a for _, a in scan]
    assert all(a > b for a, b in zip(vals[:4], vals[1:4]))
    assert (2.45 * 6.7) ** 2 / 280 > 0.8  # final domain covers > 80% of the torus
    assert vals[-1] < 0.05

    g = T.gaussian_window(128)
    gauss_St = T.total_correlation(T.tensor_product(g, g))
    scan = T.asymptotic_alc_scan(
        gauss_St, T.make_rect_domain(128, 2.45, 2.45), [1.0, 1.5, 2.0, 3.0, 4.6]
    )
    vals = [a for _, a in scan]
    assert all(a > b for a, b in zip(vals[:4], vals[1:4]))
    assert (2.45 * 4.6) ** 2 / 128 > 0.8
    assert vals[-1] < 0.05
    print("ACCEPTANCE 4 (qualitative figure reproduction): PASS")


def test_criterion_5_determinism(tmp_path):
    for name, extra, files in (
        ("bounds_suite", ["--d", "16", "--trials", "10", "--no-svg"], ["bounds_suite.csv"]),
        ("gauss_alc", ["--d", "100", "--trials", "5", "--N", "10", "--no-svg"],
         ["gauss_alc.csv"]),
        ("chirp_totalcorr", ["--d", "33", "--N", "12", "--svg"],
         ["chirp_totalcorr.csv", "chirp_totalcorr.svg"]),
    ):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / name / sub
            code = main(
                ["experiment", "--experiment", name, "--seed", "9",
                 "--out", str(out)] + extra
            )
            assert code == 0
            outs.append([(out / f).read_bytes() for f in files])
        assert outs[0] == outs[1]
    print("ACCEPTANCE 5 (byte-identical CSV and SVG reruns): PASS")
