"""Local squarefree densities alpha_v, beta_v, the volume identity, and
truncated/Monte Carlo global densities.

alpha_v has three routes that must agree: the first-order lift strategy
(the contracted algorithm), exhaustive enumeration over all q_v^8 residues
(oracle, feasible for q_v <= 7ish), and a closed form obtained by
stratifying the quartics with repeated roots:

    N0(Q) = #{Delta = 0}            = Q^3 + Q - 1
    N2(Q) = #{Delta = 0, grad = 0}  = 4Q^2 - 5Q + 2
    alpha(Q) = ((N0 - N2) Q^3 + N2 Q^4) / Q^8 = (5Q^3 - 9Q^2 + 8Q - 3)/Q^5

(the gradient includes the chain-rule factor 2 q4 from the square constant
term, which is what produces the N2 strata: two double roots, a triple or
quadruple root, and nodal quartics whose double root sits at 0).  The closed
form powers the high-degree places of the truncated global product and the
rigorous tail bound alpha(Q) <= 5/Q^2.

beta_v is never enumerated (q_v^32); the volume identity defines it and
Monte Carlo over V(O/(pi^2)) checks it.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

from . import numkernels
from .fields import GF
from .funcfield import count_monic_irreducibles
from .linalg import LAPLACE_4
from .rng import det_rng

# the Monte Carlo gate of beta_v, in standard errors
SIGMA_GATE = 4
# the largest exponent 8 sum n N_n of q in delta_b_truncated's denominator:
# at degree 6, q = 7 (1094416) takes ~2 s and q = 11 (15576976) over 100 s
MAX_TRUNCATION_EXPONENT = 2_000_000


def alpha_closed_form(q_v: int) -> Fraction:
    """alpha_v as an exact rational, valid for any prime power q_v (p >= 5)."""
    n0 = q_v**3 + q_v - 1
    n2 = 4 * q_v**2 - 5 * q_v + 2
    return Fraction((n0 - n2) * q_v**3 + n2 * q_v**4, q_v**8)


def alpha_v(q_v: int) -> Fraction:
    """alpha_v by the first-order lift strategy (enumeration of B(k_v)).

    For prime q_v the enumeration is vectorized directly; for prime powers
    up to 64 it runs over index tables.  The result is checked against the
    closed form (hard failure on mismatch).
    """
    p, m = _prime_power(q_v)
    if m == 1:
        num = numkernels.alpha_lift_prime(p)
    elif q_v <= 64:
        n0, n2 = numkernels.alpha_counts_table(GF(p, m))
        num = (n0 - n2) * q_v**3 + n2 * q_v**4
    else:
        raise ValueError(f"enumeration infeasible at q_v = {q_v}; use the closed form")
    out = Fraction(num, q_v**8)
    assert out == alpha_closed_form(q_v), "lift strategy disagrees with the closed form"
    return out


def alpha_bruteforce(q_v: int) -> Fraction:
    """Exhaustive q_v^8 oracle (prime q_v only; q_v <= 7 is comfortable)."""
    if _prime_power(q_v)[1] != 1:
        raise ValueError("brute force oracle implemented for prime q_v")
    return Fraction(numkernels.alpha_brute_prime(q_v), q_v**8)


def _prime_power(q):
    """(p, m) with q = p^m for a prime p and m >= 1; a ValueError naming q
    otherwise."""
    p = next((d for d in range(2, q + 1) if q % d == 0), None)  # least prime factor
    m, rest = 0, q
    while p and rest % p == 0:
        rest //= p
        m += 1
    if p is None or rest != 1:
        raise ValueError(f"q = {q} is not a prime power")
    return p, m


def so4_count_formula(q: int) -> int:
    return q**2 * (q**2 - 1) ** 2


def so4_count_bruteforce(q: int) -> int:
    """#SO_4(F_q) for the split antidiagonal form, column by column.

    Columns c1..c4 are nonzero isotropic vectors with the pairings of the
    antidiagonal form (c1.c2 = c1.c3 = c2.c4 = c3.c4 = 0, c2.c3 = c1.c4 =
    1) and det 1.  The Gram matrix of the isotropic vectors picks the c2,
    c3 and c4 candidates by masks; for each (c1, c2) the determinant is
    the bilinear form c3^T M c4 with M[k, l] = det(c1, c2, e_k, e_l): by
    the Laplace expansion of ``linalg.LAPLACE_4``, the pair ((a, b), (k,
    l)) puts the 2x2 minor m_ab of (c1, c2) at M[k, l] and -m_ab at M[l, k].
    """
    import numpy as np

    p = q
    if _prime_power(q)[1] != 1:
        raise ValueError("oracle restricted to prime q")
    rng = np.arange(q, dtype=np.int64)
    vecs = np.stack(
        [g.reshape(-1) for g in np.meshgrid(rng, rng, rng, rng, indexing="ij")], axis=1
    )
    jmat = np.zeros((4, 4), dtype=np.int64)
    for i in range(4):
        jmat[i, 3 - i] = 1
    iso = vecs[np.einsum("ni,ij,nj->n", vecs, jmat, vecs) % p == 0]
    iso = iso[iso.any(axis=1)]  # no column of an invertible matrix is 0
    gram = iso @ jmat @ iso.T % p
    # the six minors of (c1, c2) times their signed places in M
    (a, b), (k, l) = np.array(LAPLACE_4).transpose(1, 2, 0)
    place = np.zeros((6, 4, 4), dtype=np.int64)
    place[range(6), k, l] = 1
    place[range(6), l, k] = -1
    place = place.reshape(6, 16)
    count = 0
    for i, c1 in enumerate(iso):
        js = np.flatnonzero(gram[i] == 0)
        c2 = iso[js]
        forms = ((c1[a] * c2[:, b] - c1[b] * c2[:, a]) @ place).reshape(-1, 4, 4)
        for j, form in zip(js, forms):
            m3 = (gram[i] == 0) & (gram[j] == 1)
            m4 = (gram[i] == 1) & (gram[j] == 0)
            dets = iso[m3] @ form @ iso[m4].T % p
            count += int(((dets == 1) & (gram[np.ix_(m3, m4)] == 0)).sum())
    return count


def vol_g(q: int) -> Fraction:
    """vol(G(O_v)) = #G(F_q)/q^12 with #G = #SO_4(F_q)^2 (Lang count
    through the central isogeny SO_4 x SO_4 -> G with kernel mu_2)."""
    return Fraction(so4_count_formula(q) ** 2, q**12)


@dataclass
class DensityReport:
    q_v: int
    alpha: Fraction
    beta: Fraction
    vol_g: Fraction
    identity_residual: Fraction
    mc_estimate: dict | None = None
    assumptions: tuple = (
        "vol(G(O_v)) = #G(k_v)/q_v^dim G (smooth-model volume)",
        "alpha, beta depend on v through q_v only",
    )

    def to_json(self) -> str:
        data = {
            "q_v": self.q_v,
            "alpha": str(self.alpha),
            "beta": str(self.beta),
            "vol_G": str(self.vol_g),
            "identity_residual": str(self.identity_residual),
            "mc": self.mc_estimate,
            "assumptions": list(self.assumptions),
        }
        return json.dumps(data, indent=2, sort_keys=True)


def beta_v(q_v: int, mc: tuple = None) -> DensityReport:
    """beta_v = 1 - vol_G (1 - alpha_v), with optional Monte Carlo check.

    mc = (N, seed) samples N points of V(O/(pi^2)) and requires the exact
    value within SIGMA_GATE standard errors (hard failure otherwise).
    Monte Carlo is available at prime q_v.
    """
    alpha = alpha_v(q_v)
    vol = vol_g(q_v)
    beta = 1 - vol * (1 - alpha)
    residual = vol * (1 - alpha) - (1 - beta)
    assert residual == 0
    assert 0 < alpha < 1 and 0 < beta < 1
    mc_data = None
    if mc is not None:
        n, seed = mc
        if _prime_power(q_v)[1] != 1:
            raise ValueError("Monte Carlo beta implemented for prime q_v")
        hits = numkernels.beta_mc_prime(q_v, n, seed)
        mean = hits / n
        stderr = sqrt(max(mean * (1 - mean), 1e-12) / n)
        dev = abs(mean - float(beta))
        mc_data = {
            "N": n,
            "seed": seed,
            "hits": hits,
            "mean": mean,
            "stderr": stderr,
            "deviation_sigmas": dev / stderr if stderr else 0.0,
        }
        if dev > SIGMA_GATE * stderr:
            raise AssertionError(
                f"Monte Carlo beta {mean} deviates from exact {float(beta)} "
                f"by {dev / stderr:.2f} sigma"
            )
    return DensityReport(q_v, alpha, beta, vol, residual, mc_data)


def place_count(q: int, degree: int) -> int:
    """Places of P^1/F_q of the given degree (infinity included at 1)."""
    n = count_monic_irreducibles(q, degree)
    return n + 1 if degree == 1 else n


def delta_b_truncations(q: int, max_degree: int) -> list:
    """[delta_b_truncated(q, k) for k = 0..max_degree], one running product.
    Degree n's N_n places bring q^(8 n N_n) to the denominator; past
    MAX_TRUNCATION_EXPONENT it raises ValueError before any product."""
    exponent = 8 * sum(n * place_count(q, n) for n in range(1, max_degree + 1))
    if exponent > MAX_TRUNCATION_EXPONENT:
        raise ValueError(
            f"delta_B truncated at degree {max_degree} over q = {q} needs a "
            f"denominator of q^{exponent}, past q^{MAX_TRUNCATION_EXPONENT}"
        )
    out = [Fraction(1)]
    for n in range(1, max_degree + 1):
        out.append(out[-1] * (1 - alpha_closed_form(q**n)) ** place_count(q, n))
    return out


def delta_b_truncated(q: int, max_degree: int) -> Fraction:
    """prod over places of degree <= max_degree of (1 - alpha_v)."""
    return delta_b_truncations(q, max_degree)[-1]


def delta_b_tail_bound(q: int, beyond_degree: int) -> Fraction:
    """Rigorous bound on the truncation error: sum over deg v > B of alpha_v.

    Uses alpha(Q) <= 5/Q^2 and N_n <= q^n/n:
    sum_{n>B} (q^n/n) 5 q^{-2n} <= (5/(B+1)) q^{-B} / (q-1).
    The product/tail comparison |prod_{<=B} - prod_all| <= tail holds since
    all factors lie in (0, 1].
    """
    b = beyond_degree
    return Fraction(5, (b + 1) * (q - 1)) * Fraction(1, q**b)


def delta_b_montecarlo(field, d: int, n: int, seed: int):
    """Empirical in_XD fraction over H^0(X, B_D), D = d*infinity, batched.

    Returns (fraction, stderr, hits).  A hit is a tuple that
    ``numkernels.xd_box_filter`` passes, the X_D test of ``curves``: the
    affine discriminant must be nonzero and squarefree with at most a
    simple zero at infinity, 24 d - deg Delta <= 1.  Chunk i of 4000
    samples draws from the Philox stream (seed, "delta-b-mc", i) and is
    one call of the filter, with no per-row Python.  Only the mask is
    read, so the filter may sieve: where q + 1 <= SIEVE_RATIO d it
    rejects the tuples with a double zero of Delta at a place of degree 1
    before it computes Delta.
    """
    import numpy as np

    p = field.char
    if field.order != p:
        raise ValueError("Monte Carlo delta_B implemented for prime fields")
    weights = (1, 2, 2, 3)
    hits = 0
    done = 0
    batch_index = 0
    chunk = 4000
    while done < n:
        size = min(chunk, n - done)
        rng = det_rng(seed, "delta-b-mc", batch_index)
        batch_index += 1
        arrays = [
            rng.integers(0, p, size=(size, 2 * d * w + 1), dtype=np.int64)
            for w in weights
        ]
        hits += int(numkernels.xd_box_filter(p, arrays).sum())
        done += size
    frac = hits / n
    stderr = sqrt(max(frac * (1 - frac), 1e-12) / n)
    return frac, stderr, hits
