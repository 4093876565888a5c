"""The acceptance suite: eleven property-based criteria, each checking the
quantitative bounds the constructions certify, at desk scale (matrix
dimensions 2 to 16) with pinned seeds and runtime budgets.

Each criterion returns a CriterionResult and prints one pass/fail line; the
whole suite runs through run_all (the CLI selftest subcommand).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .algebra import FDAlgebra
from .averaging import (canonical_average, improve_multiplicativity,
                        intertwining_unitary, projection_conjugator)
from .certs import WindowError, on_track
from .cpmaps import LinMap, classify, dilation_images, perturb_choi, stinespring
from .instances import (_rotated_embedding, gen_instance, hat_decomposition,
                        random_order_zero)
from .linalg import (dagger, expm_i, opnorm, opnorm_max, opnorms, polar_factor,
                     random_complex, random_hermitian, rng_for)
from .orderzero import (NucDimDecomposition, identity_decomposition, near_embed_nucdim,
                        nucdim_cpc_transfer, perturb_order_zero,
                        split_decomposition, verify_nucdim_decomposition)
from .pipelines import run_pipeline
from .serialize import dumps

__all__ = ["CriterionResult", "run_all", "CRITERIA"]

SQ2 = np.sqrt(2.0)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} criterion {self.number} ({self.name}): "
                f"{self.detail} [{self.elapsed:.1f}s]")


def _result(number: int, name: str, passed: bool, detail: str,
            t0: float) -> CriterionResult:
    return CriterionResult(number=number, name=name, passed=bool(passed),
                           detail=detail, elapsed=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 1. polar and projection bounds
# ---------------------------------------------------------------------------

def criterion_1() -> CriterionResult:
    t0 = time.perf_counter()
    count = 10_000
    rng = rng_for(0, "acceptance-1")
    worst_polar = worst_proj_norm = worst_conj = 0.0
    for i in range(count):
        n = 2 + int(rng.integers(0, 15))
        if i % 2 == 0:
            g = random_complex(rng, n)
            c = float(rng.uniform(0.0, 0.5))
            t = np.eye(n) + (c / max(opnorm(g), 1e-300)) * g
            u = polar_factor(t)
            worst_polar = max(worst_polar,
                              opnorm(u - np.eye(n)) - SQ2 * opnorm(t - np.eye(n)))
        else:
            h = random_hermitian(rng, n)
            vals, vecs = np.linalg.eigh(h)
            k = int(rng.integers(1, n))
            p = vecs[:, :k] @ dagger(vecs[:, :k])
            g = random_hermitian(rng, n)
            s = float(rng.uniform(0.0, 0.6))
            v = expm_i(s * g / max(opnorm(g), 1e-300))
            q = v @ p @ dagger(v)
            w, cert = projection_conjugator(p, q)
            worst_proj_norm = max(worst_proj_norm,
                                  opnorm(w - np.eye(n)) - SQ2 * opnorm(p - q))
            worst_conj = max(worst_conj, cert.details["conjugation_defect"])
    ok = worst_polar <= 1e-9 and worst_proj_norm <= 1e-9 and worst_conj <= 1e-9
    detail = (f"{count} instances, polar margin {worst_polar:.2e}, "
              f"conjugator margin {worst_proj_norm:.2e}, "
              f"conjugation defect {worst_conj:.2e}")
    return _result(1, "polar and projection bounds", ok, detail, t0)


# ---------------------------------------------------------------------------
# 2. dilation reconstruction and defect identity
# ---------------------------------------------------------------------------

def _random_ucp(fd: FDAlgebra, N: int, rng) -> LinMap:
    D = N * fd.d
    m = random_complex(rng, D)[:, :N]
    v, _ = np.linalg.qr(m)
    return LinMap(fd, tuple(dagger(v) @ np.kron(u, np.eye(N)) @ v for u in fd.units()))


def criterion_2() -> CriterionResult:
    # from the dilation's fields, pi(e_ij) = e_ij (x) 1_{r_k} on block k:
    # phi(e_ij) = M_{k,i}* M_{k,j} for M = V E*, and with p = V V*
    # phi(aa*) - phi(a) phi(a*) = Y* (1 - p) Y for Y = pi(a*) M, whose rows
    # (i, alpha) of block k are sum_j (a*)_ij M_{k,j}
    t0 = time.perf_counter()
    per_profile = 100
    profiles = [(2,), (1, 1), (2, 1), (3,)]
    worst_recon = worst_defect = 0.0
    for profile in profiles:
        fd = FDAlgebra(profile)
        rng = rng_for(0, "acceptance-2", *profile)
        for _ in range(per_profile):
            phi = _random_ucp(fd, 4, rng)
            dil = stinespring(phi)
            V, M = dil.isometry, dil.isometry @ dagger(dil.embed)
            worst_recon = max(worst_recon, opnorm_max(
                dilation_images(profile, dil.ranks, M) - phi.images))
            a = fd.random_elements(rng, 3)
            a = a / np.maximum(opnorms(a), 1e-300)[:, None, None]
            cuts = np.cumsum([0] + [n * r for n, r in zip(profile, dil.ranks)])
            Y = np.concatenate([(dagger(a)[:, o:o + n, o:o + n] @ M[c:e].reshape(n, -1))
                                .reshape(len(a), -1, M.shape[1])
                                for o, n, c, e in zip(fd.offsets, profile, cuts, cuts[1:])], axis=1)
            rhs = dagger(Y) @ Y - dagger(dagger(V) @ Y) @ (dagger(V) @ Y)
            lhs = phi(a @ dagger(a)) - phi(a) @ phi(dagger(a))
            worst_defect = max(worst_defect, opnorm_max(lhs - rhs))
    ok = worst_recon <= 1e-10 and worst_defect <= 1e-10
    detail = (f"{per_profile} maps x {len(profiles)} profiles, reconstruction "
              f"{worst_recon:.2e}, defect identity {worst_defect:.2e}")
    return _result(2, "dilation reconstruction", ok, detail, t0)


# ---------------------------------------------------------------------------
# 3. exact diagonals for all small block profiles
# ---------------------------------------------------------------------------

def _partitions(total: int):
    out = []

    def rec(rest, cap, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for n in range(min(rest, cap), 0, -1):
            rec(rest - n, n, acc + [n])

    rec(total, total, [])
    return out


def criterion_3() -> CriterionResult:
    t0 = time.perf_counter()
    mult_defects, worst_central = [], 0.0
    for total in range(1, 7):
        for profile in _partitions(total):
            fd = FDAlgebra(profile)
            units = fd.units()
            # the multiplication image of the canonical element is the unit
            mult_defects.append(opnorm(canonical_average(fd, units, units) - fd.unit()))
            rng = rng_for(0, "acceptance-3", *profile)
            for x in fd.random_elements(rng, 3):
                x = x / max(opnorm(x), 1e-300)
                tw = canonical_average(fd, units @ x, units)
                worst_central = max(worst_central, opnorm_max(tw @ units - units @ tw))
    n_profiles, worst_mult = len(mult_defects), max(mult_defects)
    ok = worst_mult <= 1e-12 and worst_central <= 1e-11
    detail = (f"{n_profiles} block profiles, multiplication image defect "
              f"{worst_mult:.2e}, centrality {worst_central:.2e}")
    return _result(3, "exact diagonals", ok, detail, t0)


# ---------------------------------------------------------------------------
# 4. multiplicativity repair pipeline
# ---------------------------------------------------------------------------

def _noisy_cpc_hom(profile, N: int, eps: float, rng) -> LinMap:
    fd = FDAlgebra(profile)
    psi = perturb_choi(_rotated_embedding(fd, N, rng), eps, rng)
    nrm = opnorm(psi(fd.unit()))
    if nrm > 1.0:
        psi = psi.scaled(1.0 / nrm)
    return psi


def criterion_4() -> CriterionResult:
    t0 = time.perf_counter()
    seeds = 50
    profiles = [(2,), (2, 1), (1, 1, 1), (3,)]
    worst_defect = worst_gamma = 0.0
    all_ok = True
    for s in range(seeds):
        rng = rng_for(s, "acceptance-4")
        profile = profiles[s % len(profiles)]
        eps = float(rng.uniform(1e-4, 1e-3))
        phi = _noisy_cpc_hom(profile, sum(profile) + 1, eps, rng)
        repair = improve_multiplicativity(phi)
        worst_gamma = max(worst_gamma, repair.gamma)
        worst_defect = max(worst_defect,
                           repair.certificates["multiplicativity"].achieved)
        all_ok = all_ok and repair.passed
    ok = all_ok and worst_defect <= 1e-9 and worst_gamma <= 1.0 / 17.0
    detail = (f"{seeds} seeds, worst defect {worst_gamma:.2e} (window 1/17), "
              f"repaired defect {worst_defect:.2e}, distance bound "
              f"{'met' if all_ok else 'violated'}")
    return _result(4, "multiplicativity repair", ok, detail, t0)


# ---------------------------------------------------------------------------
# 5. averaged intertwiners
# ---------------------------------------------------------------------------

def _conjugated_hom_pair(profile, N: int, gamma: float, rng):
    rho = _rotated_embedding(FDAlgebra(profile), N, rng)
    h = random_hermitian(rng, N)
    u0 = expm_i(gamma * h / max(opnorm(h), 1e-300))
    return rho.conjugated(u0), rho


def criterion_5() -> CriterionResult:
    t0 = time.perf_counter()
    seeds = 50
    profiles = [(2,), (2, 1), (1, 1)]
    worst_resid = 0.0
    all_ok = True
    for s in range(seeds):
        rng = rng_for(s, "acceptance-5")
        profile = profiles[s % len(profiles)]
        phi1, phi2 = _conjugated_hom_pair(profile, sum(profile) + 1,
                                          float(rng.uniform(1e-3, 4e-2)), rng)
        res = intertwining_unitary(phi1, phi2)
        conj = max(opnorm(res.u @ b @ dagger(res.u) - a)
                   for a, b in zip(phi1.images, phi2.images))
        worst_resid = max(worst_resid, conj)
        all_ok = all_ok and res.passed
        all_ok = all_ok and opnorm(res.u - np.eye(res.u.shape[0])) \
            <= 2 * SQ2 * res.gamma + 5 * SQ2 * res.delta + 1e-9
    for s in range(seeds):
        rng = rng_for(s, "acceptance-5-noisy")
        profile = profiles[s % len(profiles)]
        phi1, phi2 = _conjugated_hom_pair(profile, sum(profile) + 1,
                                          float(rng.uniform(1e-3, 2e-2)), rng)
        noisy = _noisy_cpc_hom(profile, sum(profile) + 1,
                               float(rng.uniform(1e-4, 1e-3)), rng)
        mix = 0.98 * np.asarray(phi1.images) + 0.02 * np.asarray(noisy.images)
        phi1n = LinMap(phi1.domain, tuple(mix))
        res = intertwining_unitary(phi1n, phi2)
        all_ok = all_ok and res.certificates["norm"].passed
    ok = all_ok and worst_resid <= 1e-10
    detail = (f"{seeds} exact + {seeds} approximate pairs, exact intertwining "
              f"residual {worst_resid:.2e}, norm ceilings "
              f"{'met' if all_ok else 'violated'}")
    return _result(5, "averaged intertwiners", ok, detail, t0)


# ---------------------------------------------------------------------------
# 6. close-isomorphism pipeline
# ---------------------------------------------------------------------------

ISO_GRID = [(eps, alg) for eps in (1e-4, 1e-5, 1e-6)
            for alg in ("M2", "M2+M1", "diag3")]


def criterion_6() -> CriterionResult:
    t0 = time.perf_counter()
    seeds = 20
    runs = 0
    all_ok = True
    worst_ratio = worst_hom = 0.0
    for eps, alg in ISO_GRID:
        for s in range(seeds):
            inst = gen_instance("conjugation",
                                {"algebra": alg, "ambient": 4, "eps": eps},
                                seed=s)
            report = run_pipeline(inst, "iso", seed=s)
            runs += 1
            for key in ("forward-closeness", "backward-closeness"):
                c = report.certificates[key]
                worst_ratio = max(worst_ratio, c.achieved / c.ceiling)
            worst_hom = max(worst_hom, report.certificates["homomorphism"].achieved)
            all_ok = all_ok and report.ok
    ok = all_ok and worst_hom <= 1e-9
    detail = (f"{runs} runs over {len(ISO_GRID)} (eps, algebra) pairs, "
              f"homomorphism defect {worst_hom:.2e}, closeness at most "
              f"{worst_ratio:.2e} of 28 gamma^(1/2), both directions "
              f"{'certified' if all_ok else 'violated'}")
    return _result(6, "close-isomorphism pipeline", ok, detail, t0)


# ---------------------------------------------------------------------------
# 7. unitary implementation
# ---------------------------------------------------------------------------

def criterion_7() -> CriterionResult:
    t0 = time.perf_counter()
    seeds = 20
    runs = 0
    all_ok = True
    worst_conj = worst_sub = 0.0
    for eps, alg in ISO_GRID:
        for s in range(seeds):
            inst = gen_instance("conjugation",
                                {"algebra": alg, "ambient": 4, "eps": eps},
                                seed=s)
            cert = run_pipeline(inst, "unitary", seed=s).certificates["unitary-implementation"]
            runs += 1
            worst_conj = max(worst_conj, cert.achieved)
            worst_sub = max(worst_sub, cert.details["subspace_residual"])
            bound = 2 * SQ2 * cert.inputs["gamma_basis"] + 1e-9
            all_ok = all_ok and cert.details["u_norm"] <= bound
    ok = all_ok and worst_conj <= 1e-8 and worst_sub <= 1e-8
    detail = (f"{runs} runs, conjugation residual {worst_conj:.2e}, subspace "
              f"equality {worst_sub:.2e}, norm bound "
              f"{'met' if all_ok else 'violated'}")
    return _result(7, "unitary implementation", ok, detail, t0)


# ---------------------------------------------------------------------------
# 8. order-zero perturbation
# ---------------------------------------------------------------------------

def criterion_8() -> CriterionResult:
    t0 = time.perf_counter()
    seeds = 50
    profiles = [(2,), (2, 1), (1, 1)]
    all_ok = True
    worst_exact = 0.0
    for s in range(seeds):
        rng = rng_for(s, "acceptance-8")
        profile = profiles[s % len(profiles)]
        oz = random_order_zero(profile, 4, seed=s)
        C = oz.map.codomain_algebra
        h = random_hermitian(rng, 4)
        eps = float(rng.uniform(1e-5, 1e-3))
        u = expm_i(eps * h / max(opnorm(h), 1e-300))
        B = C.conjugated(u)
        gamma = 2.0 * opnorm(u - np.eye(4))
        _, cert = perturb_order_zero(oz, B, gamma)
        all_ok = all_ok and cert.passed
    for s in range(3):
        oz = random_order_zero(profiles[s], 4, seed=100 + s)
        _, cert0 = perturb_order_zero(oz, oz.map.codomain_algebra, 0.0)
        worst_exact = max(worst_exact, cert0.achieved)
    ok = all_ok and worst_exact <= 1e-10
    detail = (f"{seeds} seeds, cb ceiling {'met' if all_ok else 'violated'}, "
              f"exact reconstruction at gamma = 0: {worst_exact:.2e}")
    return _result(8, "order-zero perturbation", ok, detail, t0)


# ---------------------------------------------------------------------------
# 9. decomposition transfer and embedding
# ---------------------------------------------------------------------------

def criterion_9() -> CriterionResult:
    t0 = time.perf_counter()
    seeds = 20
    all_ok = True
    runs = 0
    half = seeds // 2
    for s in range(half):
        inst = gen_instance("conjugation",
                            {"algebra": "M2+M1", "ambient": 4, "eps": 1e-6},
                            seed=s)
        dec = identity_decomposition(inst.A)
        gamma = inst.dist_hint()
        X = inst.A.normalized_basis
        phi, cert_t = nucdim_cpc_transfer(inst.A, dec, X, inst.B, gamma)
        all_ok = all_ok and cert_t.passed and classify(phi).cpc
        _, cert_e = near_embed_nucdim(inst.A, inst.B, gamma, dec)
        all_ok = all_ok and cert_e.passed
        runs += 1
    A, dec1, X1 = hat_decomposition(9)
    for s in range(seeds - half):
        rng = rng_for(s, "acceptance-9-hat")
        h = random_hermitian(rng, 9)
        u = expm_i(1e-6 * h / max(opnorm(h), 1e-300))
        B = A.conjugated(u)
        gamma = 2.0 * opnorm(u - np.eye(9))
        vc = verify_nucdim_decomposition(A, X1, dec1.defect + 1e-12, dec1)
        all_ok = all_ok and vc.passed
        phi, cert_t = nucdim_cpc_transfer(A, dec1, X1, B, gamma)
        all_ok = all_ok and cert_t.passed and classify(phi).cpc
        _, cert_e = near_embed_nucdim(A, B, gamma, dec1, X=X1)
        all_ok = all_ok and cert_e.passed and cert_e.details["transfer_ok"]
        runs += 1
    detail = (f"{runs} runs across colors n = 0 and n = 1, transfer cpc and "
              f"ceilings {'met' if all_ok else 'violated'}")
    return _result(9, "decomposition transfer and embedding", all_ok, detail, t0)


# ---------------------------------------------------------------------------
# 10. negative controls
# ---------------------------------------------------------------------------

def criterion_10() -> CriterionResult:
    t0 = time.perf_counter()
    checks = []
    fd = FDAlgebra((2,))
    transpose = LinMap(fd, tuple(u.T.copy() for u in fd.units()))
    checks.append(("transpose flagged non-cp", not classify(transpose).cp))

    from .instances import block_algebra
    A = block_algebra((2, 2), 4)
    dec = split_decomposition(A)
    up = dec.ups[1]  # replaced by a map with every image equal, not order zero
    bad_up = LinMap(up.domain, np.repeat(up.images[:1], len(up.images), axis=0))
    broken = NucDimDecomposition(dec.downs, (dec.ups[0], bad_up), dec.defect)
    X = A.normalized_basis
    cert = verify_nucdim_decomposition(A, X, 1e-9, broken)
    checks.append(("broken summand named",
                   cert.verdict == "fail"
                   and cert.details["failed_invariant"] == "up-1-not-order-zero"))

    rng = rng_for(0, "acceptance-10")
    phi = _noisy_cpc_hom((2,), 3, 1e-3, rng)
    try:
        with on_track("paper"):
            improve_multiplicativity(phi, gamma=0.07)
        checks.append(("window 1/17 enforced", False))
    except WindowError:
        checks.append(("window 1/17 enforced", True))
    ok = all(flag for _, flag in checks)
    detail = "; ".join(f"{name}: {'yes' if flag else 'NO'}"
                       for name, flag in checks)
    return _result(10, "negative controls", ok, detail, t0)


# ---------------------------------------------------------------------------
# 11. determinism
# ---------------------------------------------------------------------------

def criterion_11() -> CriterionResult:
    t0 = time.perf_counter()
    seed = 7

    def snapshot() -> str:
        inst = gen_instance("conjugation",
                            {"algebra": "M2+M1", "ambient": 4, "eps": 1e-5},
                            seed=seed)
        parts = [dumps(inst)]
        for pipeline in ("dist", "iso", "oz-perturb"):
            parts.append(dumps(run_pipeline(inst, pipeline, seed=seed)))
        return "\n".join(parts)

    first, second = snapshot(), snapshot()
    ok = first == second
    detail = (f"{len(first)} bytes of serialized reports, rerun "
              f"{'byte-identical' if ok else 'DIFFERS'}")
    return _result(11, "determinism", ok, detail, t0)


CRITERIA = {1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
            5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
            9: criterion_9, 10: criterion_10, 11: criterion_11}


def run_all(numbers) -> list[CriterionResult]:
    """Run the criteria of the given numbers, every criterion for none, and
    print each result's line."""
    numbers = sorted(numbers or CRITERIA)
    unknown = [k for k in numbers if k not in CRITERIA]
    if unknown:
        raise ValueError(
            f"unknown criterion {unknown[0]}; valid numbers are 1..{len(CRITERIA)}")
    results = []
    for k in numbers:
        res = CRITERIA[k]()
        results.append(res)
        print(res.line(), flush=True)
    return results
