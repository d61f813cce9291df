"""Model parameters and the spectral quantities derived from them.

A model is a typed bipartite edge-probability law: K vertex types with
counts n_k, J object types with counts m_j, and a K x J matrix P of
per-pair edge probabilities.  From it we derive the mean matrices of
the two alternating branching processes, the growth rate tau, its
eigenvectors, and the scalar constants that drive the distance
approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError


def _array(values, name: str, dtype, ndim: int) -> np.ndarray:
    """A read-only `dtype` copy of `values` with `ndim` axes; the
    caller's array stays writable.  Only numbers that convert without
    loss pass: integers for int64, integers or floats for float64.
    Bools, strings, ragged nesting and, for int64, floats (even integral
    ones, which are never truncated) raise ValidationError."""
    try:
        a = np.asarray(values)
    except ValueError as e:  # ragged nesting
        raise ValidationError(f"{name} is not an array: {e}") from e
    if a.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-D, got shape {a.shape}")
    kinds, what = ("iu", "integers") if dtype == np.int64 else ("iuf", "numbers")
    if a.size and a.dtype.kind not in kinds:
        raise ValidationError(f"{name} must be {what}, got {a.tolist()}")
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


def _is_integer(x) -> bool:
    """x is a Python or numpy integer: never a bool, a float (even an
    integral one), a string or a list."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _integer(x, name: str, low: int | None = None) -> int:
    """x as a Python int: an integer in the sense of `_is_integer`, and
    at least `low` when given; anything else raises ValidationError.
    The test is inlined, as `w_sample` runs it once per pool attempt."""
    if not isinstance(x, (int, np.integer)) or isinstance(x, bool):
        raise ValidationError(f"{name} must be an integer, got {x!r}")
    if low is not None and x < low:
        raise ValidationError(f"{name} must be >= {low}")
    return int(x)


def _vertex_type(p: ModelParams, k) -> int:
    """k as a 0-based vertex type of p: an integer with 0 <= k < K;
    anything else raises ValidationError."""
    if not (_is_integer(k) and 0 <= k < p.K):
        raise ValidationError(f"invalid vertex type {k!r}")
    return int(k)


def _roots(p: ModelParams, k1, k2) -> tuple[int, int]:
    """Global ids of the roots of a k1-k2 distance: index 0 of each type,
    index 1 for the second when k1 == k2; exchangeable, so a uniform pair."""
    k1, k2 = _vertex_type(p, k1), _vertex_type(p, k2)
    return int(p.n[:k1].sum()), int(p.n[:k2].sum()) + (k1 == k2)


@dataclass(frozen=True)
class ModelParams:
    """Vertex counts, object counts, and the edge-probability matrix.

    Rows of P index vertex types, columns index object types.  Checked
    once, on construction: n and m are 1-D and hold integers, P holds
    numbers, n_k >= 2, m_j >= 2, p_kj in [0,1]; the arrays are read-only
    copies, so a model stays valid.
    """

    n: np.ndarray
    m: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", _array(self.n, "n", np.int64, 1))
        object.__setattr__(self, "m", _array(self.m, "m", np.int64, 1))
        object.__setattr__(self, "P", _array(self.P, "P", np.float64, 2))
        if self.K < 1 or self.J < 1:
            raise ValidationError("need at least one vertex type and one object type")
        if self.P.shape != (self.K, self.J):
            raise ValidationError(
                f"P has shape {self.P.shape}, expected ({self.K}, {self.J})"
            )
        for k, v in enumerate(self.n):
            if v < 2:
                raise ValidationError(f"n_{k + 1} = {v} < 2")
        for j, v in enumerate(self.m):
            if v < 2:
                raise ValidationError(f"m_{j + 1} = {v} < 2")
        bad = np.argwhere(~((self.P >= 0.0) & (self.P <= 1.0)))  # NaN too
        if bad.size:
            k, j = bad[0]
            raise ValidationError(
                f"p_{k + 1},{j + 1} = {self.P[k, j]} out of [0,1]"
            )

    def __reduce__(self):
        # unpickling goes through the constructor, so a copy is read-only
        # too
        return ModelParams, (self.n, self.m, self.P)

    @property
    def K(self) -> int:
        return len(self.n)

    @property
    def J(self) -> int:
        return len(self.m)

    @property
    def n_total(self) -> int:
        return int(self.n.sum())

    @property
    def m_total(self) -> int:
        return int(self.m.sum())

    @cached_property
    def offspring_blocks(self) -> tuple[tuple, tuple]:
        """The nonzero offspring blocks of one generation in stream
        order, as Python numbers: the object step's (k, j, m_j, p_kj) in
        (k, j) order, then the vertex step's (j, k, n_k, p_kj) in (j, k)
        order.  Built once per model; a pickled copy rebuilds it."""
        P, m, n = self.P.tolist(), self.m.tolist(), self.n.tolist()
        objects = tuple(
            (k, j, m[j], pkj)
            for k, row in enumerate(P)
            for j, pkj in enumerate(row)
            if pkj > 0.0
        )
        vertices = tuple(
            (j, k, n[k], pkj)
            for j, col in enumerate(zip(*P))
            for k, pkj in enumerate(col)
            if pkj > 0.0
        )
        return objects, vertices


@dataclass(frozen=True)
class Rank1Params:
    """Product-form edge probabilities p_kj = alpha_k * beta_j, checked
    on construction: alpha and beta are 1-D arrays of numbers, and every
    p_kj is positive and at most 1."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", _array(self.alpha, "alpha", np.float64, 1))
        object.__setattr__(self, "beta", _array(self.beta, "beta", np.float64, 1))
        if (self.alpha <= 0).any() or (self.beta <= 0).any():
            raise ValidationError("alpha and beta must be positive")
        P = np.outer(self.alpha, self.beta)
        if (P > 1.0).any():
            k, j = np.argwhere(P > 1.0)[0]
            raise ValidationError(
                f"invalid probability alpha_{k + 1} * beta_{j + 1} = {P[k, j]} > 1"
            )


@dataclass(frozen=True)
class SpectralData:
    """Every derived scalar and vector for a supercritical model.

    mu and mu_tilde are the left eigenvectors (l1-normalized) of the
    vertex- and object-side mean matrices, nu the right eigenvector
    scaled so mu @ nu = 1.  kappa is the aggregate collision-rate
    constant in its type-proportion form; kappa_printed keeps the raw
    per-count variant as a diagnostic.
    """

    M_X: np.ndarray
    M_Y: np.ndarray
    tau: float
    lambda2_mod: float
    gamma: float
    theta: float
    mu: np.ndarray
    nu: np.ndarray
    mu_tilde: np.ndarray
    zeta: float
    zeta_star: float
    Z_star: float
    frak_z: float
    kappa: float
    kappa_printed: float
    qX: np.ndarray
    qY: np.ndarray
    rhoX: float
    rhoY: float
    i0: int
    phi_n: float
    e_mn: float
    u_mn: float
    n_total: int
    m_total: int

    def __post_init__(self):
        if self.tau <= 1.0:
            raise ValidationError("tau <= 1: supercritical regime required")


def mean_matrices(p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Mean matrices of the vertex- and object-side processes.

    M_X[k,l] = sum_j p_kj m_j p_lj n_l and M_Y[j,i] = sum_k p_kj n_k p_ki m_i.
    """
    M_X = (p.P * p.m) @ p.P.T * p.n
    M_Y = (p.P.T * p.n) @ p.P * p.m
    return M_X, M_Y


def _check_primitive(M: np.ndarray) -> None:
    """Reject matrices whose support S is reducible or periodic.

    S is irreducible iff S + S^2 + ... + S^K has no zero entry, and an
    irreducible S is aperiodic iff S^((K-1)^2+1) > 0 (Wielandt's bound on
    the exponent of a primitive matrix); both in Boolean arithmetic.
    """
    K = M.shape[0]
    S = M > 0.0
    reach = S @ np.linalg.matrix_power(S | np.eye(K, dtype=bool), K - 1)
    if not reach.all():
        raise ValidationError("reducible matrix")
    if not np.linalg.matrix_power(S, (K - 1) ** 2 + 1).all():
        raise ValidationError("periodic matrix")


def _dominant(A: np.ndarray) -> tuple[float, np.ndarray]:
    """Eigenvalue of A with the largest real part and the moduli of its
    eigenvector, from one dense eigendecomposition."""
    values, vectors = np.linalg.eig(A)
    i = int(np.argmax(values.real))
    return float(values[i].real), np.abs(vectors[:, i].real)


def perron(M: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Dominant eigenvalue with left/right eigenvectors.

    Returns (tau, left, right) with ||left||_1 = 1, left @ right = 1 and
    all entries positive.  Requires an irreducible aperiodic matrix.
    """
    M = np.asarray(M, dtype=np.float64)
    K = M.shape[0]
    if M.shape != (K, K):
        raise ValidationError("matrix must be square")
    if (M < 0).any():
        raise ValidationError("matrix must be nonnegative")
    _check_primitive(M)
    tau, right = _dominant(M)
    _, left = _dominant(M.T)
    left = left / left.sum()
    right = right / (left @ right)
    return tau, left, right


def second_modulus(
    M_X: np.ndarray, tau: float, nu: np.ndarray, mu: np.ndarray
) -> tuple[float, float, float]:
    """Modulus of the second eigenvalue, plus gamma and theta.

    The deflated matrix M_X - tau * outer(nu, mu) drops the dominant
    eigenvalue; its spectral radius is |lambda_2|.  The dominant
    eigenvalue of the deflation can be a complex pair, so the radius is
    taken from the dense spectrum rather than a vector iteration.
    """
    if tau <= 1.0:
        raise ValidationError("tau <= 1: supercritical regime required")
    deflated = M_X - tau * np.outer(nu, mu)
    lambda2_mod = float(np.abs(np.linalg.eigvals(deflated)).max())
    if lambda2_mod < 1e-13 * tau:
        lambda2_mod = 0.0
    gamma = max(tau, lambda2_mod**2)
    if gamma >= tau * tau:
        raise ValidationError("gamma >= tau^2: second eigenvalue not subdominant")
    # theta = max over integers t >= 0 of (t+1) r^t.  The sequence is
    # unimodal with real maximiser -1/ln r - 1, so the integer maximiser
    # is its floor (clamped at 0) or the next integer.
    ratio = math.sqrt(gamma) / tau
    s = max(0, math.floor(-1.0 / math.log(ratio) - 1.0))
    theta = max((t + 1) * ratio**t for t in (s, s + 1))
    return lambda2_mod, gamma, float(theta)


def derived_scalars(p: ModelParams) -> SpectralData:
    """Compute the full spectral summary of a model."""
    M_X, M_Y = mean_matrices(p)
    tau, mu, nu = perron(M_X)
    lambda2_mod, gamma, theta = second_modulus(M_X, tau, nu, mu)

    n = p.n_total
    m = p.m_total
    qX = p.n / n
    qY = p.m / m

    zeta = float(mu @ p.P @ p.m)
    mu_tilde = (p.m * (p.P.T @ mu)) / zeta
    zeta_star = float(p.J * (p.P * p.m).max())
    Z_star = zeta_star * math.sqrt(n / m)
    frak_z = zeta * math.sqrt(n / m)

    sum_qx = float(np.sum(mu**2 / qX))
    kappa = tau / (tau - 1.0) * sum_qx
    kappa_printed = tau / (tau - 1.0) * float(np.sum(mu**2 / p.n))
    rhoX = float((mu / qX).max())
    rhoY = float((mu_tilde / qY).max())

    i0 = int(math.floor(math.log(n) / math.log(tau)))
    while tau**i0 > n:
        i0 -= 1
    while tau ** (i0 + 1) <= n:
        i0 += 1
    phi_n = tau**i0 / n

    e_mn = n**-0.25 + m**-0.25
    r4 = (m / n) ** 0.25
    u_mn = r4 * (1.0 + r4)

    return SpectralData(
        M_X=M_X,
        M_Y=M_Y,
        tau=tau,
        lambda2_mod=lambda2_mod,
        gamma=gamma,
        theta=theta,
        mu=mu,
        nu=nu,
        mu_tilde=mu_tilde,
        zeta=zeta,
        zeta_star=zeta_star,
        Z_star=Z_star,
        frak_z=frak_z,
        kappa=kappa,
        kappa_printed=kappa_printed,
        qX=qX,
        qY=qY,
        rhoX=rhoX,
        rhoY=rhoY,
        i0=i0,
        phi_n=phi_n,
        e_mn=e_mn,
        u_mn=u_mn,
        n_total=n,
        m_total=m,
    )


def identity_report(s: SpectralData) -> dict[str, float]:
    """Numerical residual of every structural identity, keyed by name.

    All residuals are relative where a natural scale exists; a clean
    SpectralData keeps every entry far below 1e-10.
    """
    tau = s.tau
    rep = {}
    rep["left_eigen_MX"] = float(np.abs(s.mu @ s.M_X - tau * s.mu).max() / tau)
    rep["right_eigen_MX"] = float(np.abs(s.M_X @ s.nu - tau * s.nu).max() / tau)
    rep["left_eigen_MY"] = float(
        np.abs(s.mu_tilde @ s.M_Y - tau * s.mu_tilde).max() / tau
    )
    rep["mu_l1_norm"] = abs(float(np.abs(s.mu).sum()) - 1.0)
    rep["mu_nu_pairing"] = abs(float(s.mu @ s.nu) - 1.0)
    rep["mu_tilde_l1_norm"] = abs(float(np.abs(s.mu_tilde).sum()) - 1.0)
    lhs = s.zeta**2 * s.n_total / s.m_total
    rhs = (
        tau
        * float(np.sum(s.mu**2 / s.qX))
        / float(np.sum(s.mu_tilde**2 / s.qY))
    )
    rep["zeta_identity"] = float(abs(lhs - s.frak_z**2) / s.frak_z**2)
    rep["zeta_identity_expanded"] = float(abs(rhs - s.frak_z**2) / s.frak_z**2)
    ok = tau**s.i0 <= s.n_total < tau ** (s.i0 + 1)
    rep["i0_bracketing"] = 0.0 if ok else 1.0
    rep["phi_range"] = 0.0 if (1.0 / tau < s.phi_n <= 1.0) else 1.0
    lo = s.zeta_star * float(s.mu.min()) / len(s.mu_tilde)
    rep["zeta_star_sandwich"] = max(lo - s.zeta, s.zeta - s.zeta_star, 0.0) / s.zeta
    return rep


def rank1_build(
    r: Rank1Params, n, m
) -> tuple[ModelParams, float, np.ndarray, np.ndarray]:
    """Model from a product-form P, with closed-form tau, mu, nu.

    With C = sum_j m_j beta_j^2: tau = C * alpha' N_X alpha,
    mu = N_X alpha / 1' N_X alpha, nu = C (1' N_X alpha / tau) alpha.
    """
    params = ModelParams(n=n, m=m, P=np.outer(r.alpha, r.beta))
    C = float(np.sum(params.m * r.beta**2))
    nxa = params.n * r.alpha
    tau = C * float(r.alpha @ nxa)
    total = float(nxa.sum())
    mu = nxa / total
    nu = C * (total / tau) * r.alpha
    return params, tau, mu, nu


def degree_bound(p: ModelParams) -> tuple[float, float, float]:
    """Lower bound on tau from mean degrees, with the achieved slack.

    D_k = sum_j p_kj m_j is the mean object-degree of a type-k vertex;
    the bound is sum_k n_k D_k^2 / m and is attained when p_kj does not
    depend on j.
    """
    M_X, _ = mean_matrices(p)
    tau, _, _ = perron(M_X)
    D = p.P @ p.m
    s_b2 = float(np.sum(p.n * D**2))
    bound = s_b2 / p.m_total
    return bound, float(tau), float(tau - bound)
