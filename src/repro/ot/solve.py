"""Unified entry point for every discrete OT solve in the library.

``solve(problem, method=...)`` replaces the historical five unrelated
entry points (``solve_1d``, ``solve_transport``, ``transport_simplex``,
``solve_transport_lp``, ``solve_sinkhorn``): one problem object in, one
result object out, solvers resolved through the pluggable registry.

Built-in methods
----------------

``"exact"``
    Closed-form monotone coupling — optimal for 1-D supports with any
    convex ``|x - y|^p`` cost, ``O(n + m)``, at every size.  The plan is
    dense while ``n * m`` is at most
    :data:`~repro.ot.coupling._SPARSE_SUPPORT_LIMIT` and CSR-backed
    (``nnz <= n + m - 1``) above it.
``"simplex"``
    Dense transportation simplex (MODI), exact, cubic-class.
``"lp"``
    scipy/HiGHS linear-programming oracle; honours a sparse
    ``support_mask`` by solving the restricted LP.
``"sinkhorn"`` / ``"sinkhorn_log"``
    Entropic OT (probability-domain scaling / log-domain stabilised).
``"screened"``
    The sparse hybrid: a cheap entropic solve *screens* the product
    support down to the top-``k`` entries per row and column, then an
    exact LP restricted to that sparse support recovers an unregularised
    plan — the POT network-simplex/Sinkhorn hybrid pattern, and this
    library's fast path for large general supports.
``"auto"`` (default)
    Dispatches on problem structure: monotone closed form when provably
    optimal, simplex for small dense problems, LP for medium ones,
    screened beyond :data:`LP_AUTO_LIMIT` states.  Masked problems go to
    the LP up to :data:`LP_AUTO_LIMIT` states and to screened above it.

A quick doctest tour (the facade accepts a problem or the legacy
``(cost, mu, nu)`` triplet):

>>> import numpy as np
>>> from repro.ot import OTProblem, solve
>>> problem = OTProblem(source_weights=[0.5, 0.5],
...                     target_weights=[0.5, 0.5],
...                     source_support=[0.0, 1.0],
...                     target_support=[0.0, 2.0])
>>> result = solve(problem)          # auto -> monotone closed form
>>> result.solver
'exact'
>>> result.plan.toarray()
array([[0.5, 0. ],
       [0. , 0.5]])
>>> float(result.value)              # 0.5*(0-0)^2 + 0.5*(1-2)^2
0.5
>>> solve(np.eye(2), [0.5, 0.5], [0.5, 0.5], method="lp").converged
True
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
from scipy import sparse

from ..exceptions import ConvergenceError, ValidationError
from .cost import pointwise_cost
from .coupling import (_SPARSE_SUPPORT_LIMIT, SPARSE_DENSITY_THRESHOLD,
                       TransportPlan, _col_sums,
                       _inner_product as _plan_inner_product, _row_sums)
from .lp import _linprog_with_presolve_retry, _lp_matrix
from .network_simplex import (NetworkSimplexState, _transport_simplex_core,
                              network_simplex_arcs)
from .onedim import batched_north_west_corner, north_west_corner
from .problem import OTBatch, OTProblem, OTResult, result_from_matrix
from .registry import (filter_opts, register_batch_solver, register_solver,
                       resolve_solver)
from .sinkhorn import batched_sinkhorn as _batched_sinkhorn_impl
from .sinkhorn import batched_sinkhorn_log as _batched_sinkhorn_log_impl
from .sinkhorn import sinkhorn as _sinkhorn_impl
from .sinkhorn import sinkhorn_log as _sinkhorn_log_impl

__all__ = ["solve", "solve_many", "auto_method", "as_problem",
           "default_screen_k", "SIMPLEX_AUTO_LIMIT", "LP_AUTO_LIMIT",
           "EPSILON_SCALING_AUTO_LIMIT"]

#: Largest marginal size ``auto`` still hands to the dense simplex.
SIMPLEX_AUTO_LIMIT = 64
#: Largest marginal size ``auto`` still hands to the dense LP; beyond
#: this the screened sparse hybrid takes over.
LP_AUTO_LIMIT = 300
#: Marginal size from which the screened solver's default
#: ``epsilon_scaling="auto"`` switches the annealed Sinkhorn screen on.
#: Small problems converge fine from a cold start; past this size the
#: sharp small-epsilon screens that produce the most selective supports
#: routinely stall without the geometric epsilon schedule.
EPSILON_SCALING_AUTO_LIMIT = 1024


def as_problem(problem_or_cost, source_weights=None, target_weights=None,
               **problem_kwargs) -> OTProblem:
    """Coerce the facade's positional arguments into an :class:`OTProblem`.

    Accepts either a ready-made problem (marginals must then *not* be
    repeated alongside it) or the legacy triplet
    ``(cost, source_weights, target_weights)``.
    """
    if isinstance(problem_or_cost, OTProblem):
        if source_weights is not None or target_weights is not None:
            raise ValidationError(
                "marginals are part of the OTProblem; do not pass them "
                "again alongside it")
        if problem_kwargs:
            raise ValidationError(
                "problem construction keywords "
                f"{sorted(problem_kwargs)} are only valid with the "
                "(cost, source_weights, target_weights) calling form")
        return problem_or_cost
    if source_weights is None or target_weights is None:
        raise ValidationError(
            "solve() needs an OTProblem, or a cost matrix plus both "
            "marginals")
    return OTProblem.from_cost(problem_or_cost, source_weights,
                               target_weights, **problem_kwargs)


def auto_method(problem: OTProblem) -> str:
    """The solver name ``method="auto"`` dispatches ``problem`` to.

    >>> import numpy as np
    >>> from repro.ot import OTProblem
    >>> nodes = np.linspace(0.0, 1.0, 4)
    >>> weights = np.full(4, 0.25)
    >>> auto_method(OTProblem(source_weights=weights,
    ...                       target_weights=weights,
    ...                       source_support=nodes, target_support=nodes))
    'exact'
    >>> auto_method(OTProblem(source_weights=weights,
    ...                       target_weights=weights,
    ...                       cost=np.eye(4)))
    'simplex'
    """
    if problem.is_monotone_solvable:
        return "exact"
    size = max(problem.shape)
    if problem.support_mask is not None:
        # Only the LP and screened solvers honour a mask.
        return "lp" if size <= LP_AUTO_LIMIT else "screened"
    if size <= SIMPLEX_AUTO_LIMIT:
        return "simplex"
    if size <= LP_AUTO_LIMIT:
        return "lp"
    return "screened"


def solve(problem_or_cost, source_weights=None, target_weights=None, *,
          method="auto", source_support=None,
          target_support=None, support_mask=None, **opts) -> OTResult:
    """Solve a discrete optimal-transport problem.

    Parameters
    ----------
    problem_or_cost:
        An :class:`OTProblem`, or an ``(n, m)`` cost matrix accompanied by
        the two marginals (the legacy calling convention).
    method:
        A registered solver name (see
        :func:`~repro.ot.registry.available_solvers`), a callable
        ``fn(problem, **opts)``, a :class:`~repro.ot.registry.Solver`
        instance, or ``"auto"`` (structure-based dispatch).
    **opts:
        Forwarded verbatim to the resolved solver (e.g. ``epsilon`` for
        the entropic methods, ``k`` for ``"screened"``).

    Returns
    -------
    OTResult
        Plan, cost value, marginal residuals, convergence flag, iteration
        count, solver name and wall time.
    """
    problem_kwargs = {}
    if not isinstance(problem_or_cost, OTProblem):
        problem_kwargs = {"source_support": source_support,
                          "target_support": target_support,
                          "support_mask": support_mask}
    elif (source_support is not None or target_support is not None
          or support_mask is not None):
        raise ValidationError(
            "supports/support_mask are part of the OTProblem; do not pass "
            "them again alongside it")
    problem = as_problem(problem_or_cost, source_weights, target_weights,
                         **problem_kwargs)
    if isinstance(method, str) and method == "auto":
        # Dispatch here (rather than through the registered "auto"
        # solver) so the result reports the solver that actually ran,
        # with the same opts filtering: entropic knobs passed alongside
        # method="auto" reach entropic dispatch targets and are dropped
        # for exact ones.
        solver = resolve_solver(auto_method(problem))
        opts = filter_opts(solver, opts)
    else:
        solver = resolve_solver(method)
    start = time.perf_counter()
    result = solver(problem, **opts)
    return result.with_timing(solver.name, time.perf_counter() - start)


def solve_many(problems, *, method="auto", executor=None, **opts) -> list:
    """Solve a batch of independent OT problems through one entry point.

    The batched counterpart of :func:`solve`, and the engine behind
    Algorithm 1's cell fan-out: one :class:`~repro.ot.problem.OTBatch`
    (or iterable of problems) in, one list of
    :class:`~repro.ot.problem.OTResult` out, in batch order, with every
    result identical (bitwise, up to wall time and the batch-diagnostic
    extras below) to what a per-problem ``solve(problem, method=...)``
    loop would produce.

    Dispatch per problem group:

    * solvers that declare a batch kernel
      (:func:`~repro.ot.registry.register_batch_solver`) receive every
      qualifying same-shape sub-batch in **one vectorised call** — the
      shared-shape fast path (the ``"exact"`` monotone kernel solves all
      same-grid design cells in a single NumPy dispatch);
    * everything else is fanned over ``executor`` — ``None`` for an
      in-line serial loop, or any object exposing
      ``map(fn, iterable) -> results`` (a
      :mod:`repro.core.executor` executor, or a raw
      ``concurrent.futures`` pool).  A string (``"serial"``,
      ``"thread"``, ``"process"``, ``"auto"``) is resolved through
      :func:`repro.core.executor.resolve_executor`.

    ``method="auto"`` groups the batch by :func:`auto_method`; solver
    options are signature-filtered **once per group** (not once per
    problem — the registry's ``inspect.signature`` walk leaves the hot
    loop).  An explicit method receives ``opts`` verbatim, exactly like
    :func:`solve`.

    Results produced by a batch kernel additionally carry
    ``extras["batched"] = True`` and ``extras["batch_size"]``, and report
    the kernel's wall time divided evenly across the sub-batch.

    >>> import numpy as np
    >>> from repro.ot import OTProblem
    >>> cells = [OTProblem(source_weights=[0.5, 0.5],
    ...                    target_weights=[0.5, 0.5],
    ...                    source_support=[0.0, 1.0],
    ...                    target_support=[0.0, float(k)])
    ...          for k in (1, 2, 3)]
    >>> results = solve_many(cells)       # auto -> one batched dispatch
    >>> [r.solver for r in results]
    ['exact', 'exact', 'exact']
    >>> [float(r.value) for r in results]
    [0.0, 0.5, 2.0]
    >>> results[0].extras["batch_size"]
    3
    """
    batch = (problems if isinstance(problems, OTBatch)
             else OTBatch(tuple(problems)))
    if len(batch) == 0:
        return []
    if isinstance(executor, str):
        # The named executors live one layer up (repro.core.executor);
        # deferred import so the OT layer stays import-independent of it.
        from ..core.executor import resolve_executor
        executor = resolve_executor(executor)
    if executor is not None and not callable(getattr(executor, "map",
                                                     None)):
        raise ValidationError(
            "executor must be None, an executor name, or an object with "
            "map(fn, iterable) — see repro.core.executor")

    # Group the batch per dispatched solver, filtering options once per
    # group (satellite of the batched-engine design: no per-cell
    # inspect.signature overhead).
    groups = []
    if isinstance(method, str) and method == "auto":
        is_auto = True
    else:
        resolved = resolve_solver(method)
        is_auto = resolved.fn is _solve_auto
    if is_auto:
        by_name: dict = {}
        for index, problem in enumerate(batch):
            by_name.setdefault(auto_method(problem), []).append(index)
        for name, indices in by_name.items():
            solver = resolve_solver(name)
            groups.append((solver, filter_opts(solver, opts), indices))
    else:
        groups.append((resolved, dict(opts), list(range(len(batch)))))

    results: list = [None] * len(batch)
    fallback = []
    for solver, group_opts, indices in groups:
        remaining = indices
        if solver.supports_batch:
            remaining = []
            by_shape: dict = {}
            for i in indices:
                if solver.can_batch(batch[i]):
                    by_shape.setdefault(batch[i].shape, []).append(i)
                else:
                    remaining.append(i)
            for same_shape in by_shape.values():
                sub = batch.subset(same_shape)
                start = time.perf_counter()
                outcomes = solver.solve_batch(sub, **group_opts)
                share = (time.perf_counter() - start) / len(same_shape)
                for i, outcome in zip(same_shape, outcomes):
                    outcome = outcome.with_timing(solver.name, share)
                    results[i] = replace(
                        outcome,
                        extras={**outcome.extras, "batched": True,
                                "batch_size": len(same_shape)})
        fallback.extend((i, solver, group_opts) for i in remaining)

    if fallback:
        payloads = [(solver, batch[i], group_opts)
                    for i, solver, group_opts in fallback]
        if executor is None:
            solved = [_solve_many_worker(payload) for payload in payloads]
        else:
            solved = list(executor.map(_solve_many_worker, payloads))
        for (i, _, _), result in zip(fallback, solved):
            results[i] = result
    return results


def _solve_many_worker(payload):
    """Solve one fallback problem (module-level so process pools can
    pickle it); mirrors the facade's solver-name/timing stamping."""
    solver, problem, opts = payload
    start = time.perf_counter()
    result = solver(problem, **opts)
    return result.with_timing(solver.name, time.perf_counter() - start)


# -- shared result assembly --------------------------------------------------


def _finish(problem: OTProblem, matrix: np.ndarray, *, value=None,
            converged: bool = True, n_iter: int = 1,
            extras: dict | None = None) -> OTResult:
    """Wrap a raw plan matrix into an :class:`OTResult` for ``problem``."""
    return result_from_matrix(problem, matrix, value=value,
                              converged=converged, n_iter=n_iter,
                              extras=extras)


# -- built-in solvers --------------------------------------------------------


def _check_monotone_problem(problem: OTProblem) -> None:
    """Raise the 'exact' solver's validation errors for bad problems."""
    if not problem.is_one_dimensional:
        raise ValidationError(
            "the 'exact' monotone solver needs 1-D source and target "
            "supports; use 'simplex', 'lp' or 'screened' for general "
            "problems")
    if problem.support_mask is not None:
        raise ValidationError(
            "the 'exact' monotone solver cannot honour a support_mask; "
            "use 'lp' or 'screened'")


def _monotone_batchable(problem: OTProblem) -> bool:
    """Problems the vectorised monotone kernel accepts."""
    return problem.is_one_dimensional and problem.support_mask is None


def _monotone_engine(problems) -> tuple:
    """The monotone kernel shared by the serial and batched 'exact' paths.

    All ``problems`` must share one ``(n, m)`` shape and have 1-D
    unmasked supports.  Sorting, the staircase itself
    (:func:`~repro.ot.onedim.batched_north_west_corner`), the index
    un-sorting and the staircase-support gathers are each one array
    dispatch over the whole stack.  Every per-row operation is
    independent of the batch size, so a problem's plan and value are
    bit-identical whether it is solved alone or inside any batch.

    Returns ``(plans, values)``: a list of ``B`` independent ``(n, m)``
    plans (each problem owns its buffer, so retaining one result never
    pins the whole batch) and the per-problem staircase cost values
    (``None`` for problems with an explicit/callable cost, whose value
    is ``<C, plan>`` downstream).  Plans are dense numpy arrays while
    ``n * m`` is at most :data:`~repro.ot.coupling._SPARSE_SUPPORT_LIMIT`
    and CSR arrays holding the ``<= n + m - 1`` staircase entries above
    it, so a cell of any size costs ``O(n + m)`` memory.
    """
    B = len(problems)
    n, m = problems[0].shape
    xs = np.asarray(np.stack([problem.source_support.ravel()
                              for problem in problems]), dtype=np.float64)
    ys = np.asarray(np.stack([problem.target_support.ravel()
                              for problem in problems]), dtype=np.float64)
    order_x = np.argsort(xs, axis=1, kind="stable")
    order_y = np.argsort(ys, axis=1, kind="stable")
    mu_sorted = np.take_along_axis(
        np.asarray(np.stack([problem.source_weights
                             for problem in problems]), dtype=np.float64),
        order_x, axis=1)
    nu_sorted = np.take_along_axis(
        np.asarray(np.stack([problem.target_weights
                             for problem in problems]), dtype=np.float64),
        order_y, axis=1)
    srows, scols, masses = batched_north_west_corner(mu_sorted, nu_sorted)
    # Un-sort: staircase entry (i, j) of the sorted problem lands at the
    # original support positions.  Both scatters below accumulate, so
    # tie-induced zero-mass duplicates cannot clobber real entries.
    rows = np.take_along_axis(order_x, srows, axis=1)
    cols = np.take_along_axis(order_y, scols, axis=1)
    x_at = np.take_along_axis(xs, rows, axis=1)
    y_at = np.take_along_axis(ys, cols, axis=1)
    if n * m <= _SPARSE_SUPPORT_LIMIT:
        flat = rows * m + cols
        # Per-problem scatter (identical accumulation order to a lone
        # solve); each plan owns an independent buffer, which is both
        # allocator-friendly versus one B·n·m-sized bincount and lets a
        # caller keep one result without pinning the whole batch.
        plans = [np.bincount(flat[b], weights=masses[b],
                             minlength=n * m).reshape(n, m)
                 for b in range(B)]
    else:
        plans = [_staircase_csr(rows[b], cols[b], masses[b], (n, m))
                 for b in range(B)]
    # O(n + m) pointwise cost on the staircase support — the dense cost
    # matrix is never built for metric problems.  On 1-D supports the
    # |x - y|^p family is elementwise, so a batch sharing one metric is
    # costed in a single dispatch, bit-identical to the per-pair
    # pointwise_cost evaluation.
    metrics = {(problem.metric, problem.p) if problem.has_metric_cost
               else None for problem in problems}
    if len(metrics) == 1 and None not in metrics:
        ((metric, p),) = metrics
        cost_stack = _metric_cost_stack_1d(x_at - y_at, metric, p)
        values = [float(np.dot(masses[b], cost_stack[b]))
                  for b in range(B)]
        return plans, values
    values = []
    for b, problem in enumerate(problems):
        if problem.has_metric_cost:
            costs = pointwise_cost(x_at[b], y_at[b],
                                   metric=problem.metric, p=problem.p)
            values.append(float(np.dot(masses[b], costs)))
        else:
            values.append(None)
    return plans, values


def _staircase_csr(rows: np.ndarray, cols: np.ndarray, masses: np.ndarray,
                   shape: tuple) -> sparse.csr_array:
    """A staircase ``(rows, cols, masses)`` triplet as a CSR plan: the
    COO-to-CSR conversion sums duplicate entries, and zero-mass tie
    segments are dropped."""
    matrix = sparse.csr_array((masses, (rows, cols)), shape=shape)
    matrix.eliminate_zeros()
    return matrix


def _metric_cost_stack_1d(diff: np.ndarray, metric: str,
                          p: int) -> np.ndarray:
    """``|x - y|^p``-family costs for stacked 1-D displacement values —
    elementwise, hence bitwise identical to
    :func:`~repro.ot.cost.pointwise_cost` on each ``(x, y)`` pair."""
    if metric == "sqeuclidean" or (metric == "lp" and p == 2):
        return diff * diff
    if metric == "euclidean":
        return np.abs(diff)
    return np.abs(diff) ** p


@register_solver(
    "exact", aliases=("monotone", "1d"),
    description="closed-form monotone coupling; optimal for 1-D supports "
                "with convex |x-y|^p costs, O(n+m)")
def _solve_exact(problem: OTProblem) -> OTResult:
    """North-west-corner traversal of the sorted supports."""
    _check_monotone_problem(problem)
    plans, values = _monotone_engine([problem])
    return _finish(problem, plans[0], value=values[0])


@register_batch_solver("exact", when=_monotone_batchable)
def _solve_exact_batch(batch: OTBatch) -> list:
    """Vectorised monotone couplings for a same-shape 1-D batch.

    Result assembly is *trusted*: the kernel guarantees non-negative
    plans of the right shape, so the per-problem re-validation of
    :func:`~repro.ot.problem.result_from_matrix` (and its defensive
    clip/copy) is skipped.  Every stored value is bit-identical to the
    serial assembly (the equivalence is asserted per solver by
    ``tests/ot/test_batch.py``).
    """
    problems = list(batch)
    for problem in problems:
        _check_monotone_problem(problem)
    plans, values = _monotone_engine(problems)
    results = []
    for b, problem in enumerate(problems):
        value = values[b]
        if value is None:
            value = _plan_inner_product(plans[b], problem.cost_matrix())
        plan = TransportPlan._trusted(plans[b], problem.source_support,
                                      problem.target_support, float(value))
        # Same reductions the validated per-problem path performs,
        # hence bitwise-equal residuals.
        row_err = float(np.abs(_row_sums(plans[b])
                               - problem.source_weights).max())
        col_err = float(np.abs(_col_sums(plans[b])
                               - problem.target_weights).max())
        results.append(OTResult(plan=plan, value=float(value),
                                residual_source=row_err,
                                residual_target=col_err,
                                converged=True, n_iter=1))
    return results


@register_solver(
    "simplex",
    description="exact dense transportation simplex (MODI / u-v method), "
                "cubic-class in the support size")
def _solve_simplex(problem: OTProblem, *, max_iter: int | None = None,
                   tol: float = 1e-10) -> OTResult:
    if problem.support_mask is not None:
        raise ValidationError(
            "the dense simplex cannot honour a support_mask; use 'lp' or "
            "'screened'")
    matrix, pivots = _transport_simplex_core(
        problem.cost_matrix(), problem.source_weights,
        problem.target_weights, max_iter=max_iter, tol=tol)
    return _finish(problem, matrix, n_iter=pivots)


@register_solver(
    "lp", aliases=("linprog", "highs"),
    description="scipy HiGHS linear-programming oracle; honours a sparse "
                "support_mask via the restricted LP")
def _solve_lp(problem: OTProblem) -> OTResult:
    cost = problem.cost_matrix()
    mu = problem.source_weights
    nu = problem.target_weights
    if problem.support_mask is None:
        matrix, nit = _lp_matrix(cost, mu, nu)
        extras = {}
    else:
        # The mask is a hard restriction; widen it with a feasibility
        # patch (the NW-corner coupling, O(n+m) to build) only when the
        # restricted problem admits no coupling — and say so.
        mask = problem.support_mask
        widened = False
        try:
            # No presolve retry here: this mask's feasibility is unknown,
            # so an infeasible verdict is probably real and the widened
            # attempt below is the useful follow-up.
            matrix, nit = _restricted_lp_matrix(cost, mu, nu, mask,
                                                presolve_retry=False)
        except ConvergenceError:
            mask = mask | (north_west_corner(mu, nu) > 0.0)
            matrix, nit = _restricted_lp_matrix(cost, mu, nu, mask)
            widened = True
        extras = {"support_size": int(mask.sum()),
                  "support_density": float(mask.mean()),
                  "mask_widened": widened}
    return _finish(problem, matrix, n_iter=nit, extras=extras)


@register_solver(
    "sinkhorn",
    description="entropic OT via probability-domain Sinkhorn-Knopp "
                "scaling (auto-falls back to the log domain)")
def _solve_sinkhorn(problem: OTProblem, *, epsilon: float = 1e-2,
                    max_iter: int = 10_000, tol: float = 1e-9,
                    raise_on_failure: bool = False) -> OTResult:
    outcome = _sinkhorn_impl(problem.cost_matrix(), problem.source_weights,
                             problem.target_weights, epsilon=epsilon,
                             max_iter=max_iter, tol=tol,
                             raise_on_failure=raise_on_failure)
    return _finish(problem, outcome.plan, converged=outcome.converged,
                   n_iter=outcome.iterations,
                   extras={"epsilon": epsilon, "tol": tol})


@register_batch_solver("sinkhorn")
def _solve_sinkhorn_batch(batch: OTBatch, *, epsilon: float = 1e-2,
                          max_iter: int = 10_000, tol: float = 1e-9,
                          raise_on_failure: bool = False) -> list:
    """Stacked probability-domain Sinkhorn for a same-shape batch.

    All cells iterate as one ``(B, n, m)`` einsum chain
    (:func:`repro.ot.sinkhorn.batched_sinkhorn`) with per-problem
    convergence masking; each cell's result agrees with its per-cell
    ``solve`` counterpart to ~1e-12 (asserted by
    ``tests/ot/test_batch.py``).  The cost stack is built per problem —
    equal shapes do **not** imply equal grids — and collapses to a
    single shared cost matrix only when
    :attr:`~repro.ot.problem.OTBatch.has_shared_grid` certifies that
    every cell lives on identical supports with one cost recipe.
    """
    problems = list(batch)
    outcomes = _batched_sinkhorn_impl(
        _entropic_cost_stack(batch), batch.source_weight_stack(),
        batch.target_weight_stack(), epsilon=epsilon, max_iter=max_iter,
        tol=tol, raise_on_failure=raise_on_failure)
    return [_finish(problem, outcome.plan, converged=outcome.converged,
                    n_iter=outcome.iterations,
                    extras={"epsilon": epsilon, "tol": tol})
            for problem, outcome in zip(problems, outcomes)]


@register_solver(
    "sinkhorn_log",
    description="entropic OT, log-domain stabilised (survives very small "
                "epsilon)")
def _solve_sinkhorn_log(problem: OTProblem, *, epsilon: float = 1e-2,
                        max_iter: int = 10_000, tol: float = 1e-9,
                        raise_on_failure: bool = False) -> OTResult:
    outcome = _sinkhorn_log_impl(problem.cost_matrix(),
                                 problem.source_weights,
                                 problem.target_weights, epsilon=epsilon,
                                 max_iter=max_iter, tol=tol,
                                 raise_on_failure=raise_on_failure)
    return _finish(problem, outcome.plan, converged=outcome.converged,
                   n_iter=outcome.iterations,
                   extras={"epsilon": epsilon, "tol": tol})


@register_batch_solver("sinkhorn_log")
def _solve_sinkhorn_log_batch(batch: OTBatch, *, epsilon: float = 1e-2,
                              max_iter: int = 10_000, tol: float = 1e-9,
                              raise_on_failure: bool = False) -> list:
    """Stacked log-domain Sinkhorn for a same-shape batch.

    One max-shifted soft-min over the ``(B, n, m)`` stack per
    half-sweep (:func:`repro.ot.sinkhorn.batched_sinkhorn_log`), with
    the same per-problem masking and per-problem cost stacking as the
    probability-domain kernel.
    """
    problems = list(batch)
    outcomes = _batched_sinkhorn_log_impl(
        _entropic_cost_stack(batch), batch.source_weight_stack(),
        batch.target_weight_stack(), epsilon=epsilon, max_iter=max_iter,
        tol=tol, raise_on_failure=raise_on_failure)
    return [_finish(problem, outcome.plan, converged=outcome.converged,
                    n_iter=outcome.iterations,
                    extras={"epsilon": epsilon, "tol": tol})
            for problem, outcome in zip(problems, outcomes)]


def _entropic_cost_stack(batch: OTBatch) -> np.ndarray:
    """The ``(B, n, m)`` — or shared ``(1, n, m)`` — cost stack of a
    same-shape batch.

    The regression rule here (grids, not shapes): a batch kernel may
    only assume a common cost when every problem's *supports* are
    identical and the cost recipe matches —
    :attr:`~repro.ot.problem.OTBatch.has_shared_grid`, which is strictly
    stronger than the shape-keyed grouping ``solve_many`` batches by.
    Everything else gets its own cost matrix in the stack.
    """
    problems = list(batch)
    first = problems[0]
    if len(problems) > 1:
        if first.cost is not None and all(
                problem.cost is first.cost for problem in problems[1:]):
            # One explicit cost *object* shared by every problem (the
            # joint design's per-group layout) — identity is the
            # certificate, no grid needed.
            return first.cost_matrix()[None, :, :]
        if batch.has_shared_grid and all(
                _same_cost_recipe(problem, first)
                for problem in problems[1:]):
            return first.cost_matrix()[None, :, :]
    return np.stack([problem.cost_matrix() for problem in problems])


def _same_cost_recipe(problem: OTProblem, reference: OTProblem) -> bool:
    """True when the two problems provably build the same cost matrix
    from the same supports (no explicit matrices; identical metric or
    the very same callable)."""
    if problem.cost is not None or reference.cost is not None:
        return False
    if callable(problem.cost_fn) or callable(reference.cost_fn):
        return problem.cost_fn is reference.cost_fn
    return (problem.metric, problem.p) == (reference.metric, reference.p)


@register_solver(
    "screened",
    description="Sinkhorn-screened sparse hybrid: entropic solve prunes "
                "the support to top-k per row/column, then an exact "
                "restricted LP returning a CSR-backed plan — the fast "
                "path for large supports")
def _solve_screened(problem: OTProblem, *, epsilon: float = 1e-2,
                    k: int | None = None, screen_max_iter: int = 2_000,
                    screen_tol: float = 1e-6,
                    epsilon_scaling: bool | str = "auto",
                    n_scales: int = 4,
                    restricted_engine: str = "network_simplex") -> OTResult:
    """The POT-style hybrid: approximate globally, solve exactly locally.

    The entropic plan concentrates its mass near the unregularised
    optimum, so keeping only its ``k`` largest entries per row and per
    column yields a sparse support that almost surely contains the exact
    optimal basis; the exact solve restricted to that support has
    ``O(k·n)`` variables instead of ``n·m``.  A north-west-corner
    coupling is unioned into the support so the restriction is always
    feasible, and a caller-supplied ``support_mask`` is unioned in as
    additional support to include (see
    :class:`~repro.ot.problem.OTProblem`).

    ``restricted_engine`` selects the exact engine for the restricted
    solve: the native sparse arc-list network simplex
    (:func:`~repro.ot.network_simplex.network_simplex_arcs`, the
    default) or ``"lp"`` for the scipy HiGHS oracle it is differentially
    tested against.

    ``epsilon_scaling=True`` runs the Sinkhorn screen as an annealing
    loop instead of a single cold solve: ``n_scales`` geometrically
    decreasing regularisation strengths from ``1.0`` (relative; the
    screen rescales by the max cost internally) down to ``epsilon``,
    each scale warm-started from the previous scale's scaling vectors
    via the classical ``u ** (ε_prev / ε_next)`` transfer.  The small-
    ``epsilon`` screens that stall from a cold start — the sharpest,
    most selective supports — then converge in a fraction of the
    iterations.  The default ``"auto"`` switches the annealing on from
    :data:`EPSILON_SCALING_AUTO_LIMIT` states per marginal.  With the
    network-simplex engine the annealing loop additionally carries a
    spanning-tree basis across the scales: each intermediate scale's
    top-``k`` support is solved exactly, warm-started from the previous
    scale's basis, so the final (sharpest) restricted solve starts one
    or two pivots from optimal.

    The screen works on the dense ``(n, m)`` cost matrix; unmasked 1-D
    metric problems of any size belong to ``"exact"`` instead.
    """
    mu = problem.source_weights
    nu = problem.target_weights
    n, m = problem.shape
    if k is None:
        k = default_screen_k(n, m)
    if epsilon_scaling == "auto":
        epsilon_scaling = max(n, m) >= EPSILON_SCALING_AUTO_LIMIT
    elif not isinstance(epsilon_scaling, (bool, np.bool_)):
        raise ValidationError(
            "epsilon_scaling must be a bool or 'auto', got "
            f"{epsilon_scaling!r}")
    cost = problem.cost_matrix()
    state = None
    stage_pivots: list[int] = []
    on_stage = None
    if epsilon_scaling and restricted_engine == "network_simplex":
        # Carry a spanning-tree basis across the annealing scales: each
        # intermediate screen's support is solved exactly, warm-started
        # from the previous scale's basis, and the final solve below
        # inherits the last one.
        def on_stage(stage) -> None:
            nonlocal state
            rows, cols = np.nonzero(
                _screen_topk_mask(stage.plan, k, problem, mu, nu))
            outcome = network_simplex_arcs(rows, cols, cost[rows, cols],
                                           mu, nu, init=state)
            state = outcome.state
            stage_pivots.append(int(outcome.pivots))
    if epsilon_scaling:
        screened, screen_info = _epsilon_scaled_screen(
            cost, mu, nu, epsilon=epsilon, n_scales=n_scales,
            max_iter=screen_max_iter, tol=screen_tol, on_stage=on_stage)
    else:
        screened = _sinkhorn_impl(cost, mu, nu, epsilon=epsilon,
                                  max_iter=screen_max_iter,
                                  tol=screen_tol, raise_on_failure=False)
        screen_info = {"screen_iterations": screened.iterations}
    mask = _screen_topk_mask(screened.plan, k, problem, mu, nu)
    rows, cols = np.nonzero(mask)
    # The restricted solve's plan lives on a tiny support, so return it
    # CSR-backed: downstream consumers (TransportPlan sampling, v2 plan
    # archives) then stay O(nnz) instead of O(n*m).  Dense problems small
    # enough for the plan to exceed the density threshold stay dense.
    matrix, nit, value, state = _restricted_exact_entries(
        cost[rows, cols], rows, cols, (n, m), mu, nu,
        engine=restricted_engine, init=state)
    if matrix.nnz / float(n * m) > SPARSE_DENSITY_THRESHOLD:
        matrix = matrix.toarray()
    extras = {"epsilon": epsilon, "k": int(k),
              "restricted_engine": restricted_engine,
              "support_size": int(mask.sum()),
              "support_density": float(mask.mean()),
              "screen_converged": screened.converged,
              "screen_residual": float(screened.residual),
              **screen_info}
    if stage_pivots:
        extras["stage_pivots"] = stage_pivots
    if state is not None:
        extras["state"] = state
    # The restricted solve is exact on its support, but the support
    # quality depends on the screen: an unconverged screen may have
    # missed the optimal basis, so the overall result must not claim
    # convergence — unless the mask ended up covering the full support,
    # where the restricted solve *is* the dense one and the optimum is
    # certain.
    return _finish(problem, matrix, value=value,
                   converged=screened.converged or bool(mask.all()),
                   n_iter=nit, extras=extras)


def default_screen_k(n: int, m: int) -> int:
    """The screened solver's default top-``k`` per row/column.

    Tuned from the committed sweep in
    ``benchmarks/results/screened_k_sweep.txt``, which measures both of
    the solver's regimes: on metric design cells (the library workload)
    every ``k`` is staircase-certified exact, so only support economy
    matters; on adversarial supports (where the screen does all the
    work) the objective error vs the dense LP falls off a cliff below
    ``log2`` of the marginal size plus a safety margin and shows
    diminishing returns past it, while the restricted-solve cost keeps
    growing linearly in ``k`` — so the default sits at that elbow.
    """
    return max(5, int(np.ceil(np.log2(max(n, m)))) + 8)


def _screen_topk_mask(plan: np.ndarray, k: int, problem: OTProblem,
                      mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Top-``k``-per-row/column support of an entropic plan, with the
    caller's ``support_mask`` and the NW feasibility staircase unioned
    in — the screened solver's mask recipe, shared by the final solve
    and the per-scale warm-start solves."""
    n, m = plan.shape
    k_row = min(k, m)
    k_col = min(k, n)
    mask = np.zeros((n, m), dtype=bool)
    top_rows = np.argpartition(plan, m - k_row, axis=1)[:, m - k_row:]
    mask[np.arange(n)[:, None], top_rows] = True
    top_cols = np.argpartition(plan, n - k_col, axis=0)[n - k_col:, :]
    mask[top_cols, np.arange(m)[None, :]] = True
    if problem.support_mask is not None:
        mask |= problem.support_mask
    mask |= north_west_corner(mu, nu) > 0.0
    return mask


#: Starting strength of the screened solver's epsilon-scaling loop,
#: relative to the internally rescaled cost (1.0 means the Gibbs kernel
#: starts at the max-cost temperature — a few iterations to converge).
EPSILON_SCALING_START = 1.0


def _epsilon_scaled_screen(cost, mu, nu, *, epsilon: float, n_scales: int,
                           max_iter: int, tol: float,
                           on_stage=None) -> tuple:
    """Annealed Sinkhorn screen: geometric epsilon schedule + warm starts.

    Runs the probability-domain screen at ``n_scales`` strengths from
    :data:`EPSILON_SCALING_START` down to ``epsilon``; each scale is
    warm-started from the previous scale's scaling vectors through the
    classical ``u ** (ε_prev / ε_next)`` potential transfer (the dual
    potentials ``ε·log u`` are carried over unchanged).  Intermediate
    scales run at a loosened tolerance — only the final scale must meet
    ``tol``.  Returns ``(final SinkhornResult, extras dict)`` with the
    cumulative iteration count and the schedule length.

    ``on_stage``, when given, is called with each *intermediate* scale's
    :class:`~repro.ot.sinkhorn.SinkhornResult` (the final scale's result
    is returned, not called back) — the screened solver uses it to carry
    a network-simplex basis across the scales.
    """
    if not isinstance(n_scales, (int, np.integer)) or n_scales < 1:
        raise ValidationError(
            f"n_scales must be a positive integer, got {n_scales!r}")
    if epsilon >= EPSILON_SCALING_START or n_scales == 1:
        schedule = [float(epsilon)]
    else:
        schedule = list(np.geomspace(EPSILON_SCALING_START, epsilon,
                                     int(n_scales)))
        schedule[-1] = float(epsilon)  # geomspace round-off
    total_iterations = 0
    init = None
    result = None
    for index, eps in enumerate(schedule):
        last = index == len(schedule) - 1
        result = _sinkhorn_impl(
            cost, mu, nu, epsilon=eps, max_iter=max_iter,
            tol=tol if last else max(tol, 1e-4),
            raise_on_failure=False, init=init)
        total_iterations += result.iterations
        init = None
        if not last and on_stage is not None:
            on_stage(result)
        if not last and result.scalings is not None:
            # Transfer the dual potentials: u_next = u ** (ε/ε_next).
            # Worked in log space and gauge-centred — the plan is
            # invariant under (u·c, v/c), so shifting keeps the
            # amplified exponents inside float range.
            ratio = eps / schedule[index + 1]
            with np.errstate(divide="ignore"):
                log_u = ratio * np.log(result.scalings[0])
                log_v = ratio * np.log(result.scalings[1])
            finite_u = log_u[np.isfinite(log_u)]
            finite_v = log_v[np.isfinite(log_v)]
            if finite_u.size and finite_v.size:
                # Balance the two peaks: shifting u by -s and v by +s
                # leaves the plan unchanged, so put both maxima at the
                # same height to dodge overflow on either side.
                shift = (np.max(finite_u) - np.max(finite_v)) / 2.0
                log_u = log_u - shift
                log_v = log_v + shift
            with np.errstate(over="ignore"):
                u0, v0 = np.exp(log_u), np.exp(log_v)
            if np.all(np.isfinite(u0)) and np.all(np.isfinite(v0)):
                init = (u0, v0)
            # else: restart the next scale cold rather than poison it.
    return result, {"screen_iterations": total_iterations,
                    "epsilon_scaling": True,
                    "n_scales": len(schedule)}


@register_solver(
    "auto",
    description="structure-based dispatch: monotone closed form for 1-D "
                "convex costs, simplex for small dense problems, LP for "
                "medium, screened hybrid for large supports")
def _solve_auto(problem: OTProblem, **opts) -> OTResult:
    """Resolvable name for the default dispatch (so registry consumers
    like ``design_repair(solver="auto")`` work uniformly).

    Options are forwarded to the dispatched solver filtered by its
    signature (:func:`~repro.ot.registry.filter_opts`), so callers may
    pass e.g. ``epsilon`` without knowing whether dispatch will land on
    an entropic method (which uses it) or an exact one (which has no
    such knob).
    """
    target = resolve_solver(auto_method(problem))
    inner = solve(problem, method=target, **filter_opts(target, opts))
    return replace(inner,
                   extras={**inner.extras, "dispatched_to": inner.solver})


#: Engine names `_restricted_exact_entries` accepts (and the public
#: ``restricted_engine=`` knob of the screened hybrid).
RESTRICTED_ENGINES = ("network_simplex", "lp")


def _restricted_exact_entries(cost_values: np.ndarray, rows: np.ndarray,
                              cols: np.ndarray, shape: tuple,
                              mu: np.ndarray, nu: np.ndarray, *,
                              engine: str = "network_simplex",
                              init: NetworkSimplexState | None = None):
    """Exact solve over an explicit arc list, dispatched by engine.

    The restricted-solve step of the ``"screened"`` hybrid.
    ``engine="network_simplex"`` runs the native sparse arc-list network
    simplex (:func:`~repro.ot.network_simplex.network_simplex_arcs`),
    which accepts a warm-start basis via ``init``; ``engine="lp"`` keeps
    the scipy HiGHS oracle (``init`` is then ignored).  Returns
    ``(matrix, n_iter, value, state)``: a CSR plan and, for the simplex,
    its basis for reuse (``None`` for the LP path).
    """
    if engine not in RESTRICTED_ENGINES:
        raise ValidationError(
            "restricted_engine must be one of "
            f"{RESTRICTED_ENGINES}, got {engine!r}")
    if engine == "lp":
        matrix, nit, value = _restricted_lp_entries(
            cost_values, rows, cols, shape, mu, nu, sparse_output=True)
        return matrix, nit, value, None
    outcome = network_simplex_arcs(rows, cols, cost_values, mu, nu,
                                   init=init)
    matrix = sparse.csr_array((outcome.flows, (rows, cols)), shape=shape)
    matrix.eliminate_zeros()
    return matrix, outcome.pivots, outcome.value, outcome.state


def _restricted_lp_matrix(cost: np.ndarray, mu: np.ndarray, nu: np.ndarray,
                          mask: np.ndarray, *,
                          presolve_retry: bool = True,
                          sparse_output: bool = False):
    """Exact LP over only the ``mask``-allowed coupling entries.

    With ``sparse_output`` the plan comes back as a CSR sparse array
    holding just the optimal-basis entries (zeros eliminated) — the plan
    is never materialised densely.
    """
    rows, cols = np.nonzero(mask)
    matrix, nit, _ = _restricted_lp_entries(
        cost[rows, cols], rows, cols, cost.shape, mu, nu,
        presolve_retry=presolve_retry, sparse_output=sparse_output)
    return matrix, nit


def _restricted_lp_entries(cost_values: np.ndarray, rows: np.ndarray,
                           cols: np.ndarray, shape: tuple, mu: np.ndarray,
                           nu: np.ndarray, *, presolve_retry: bool = True,
                           sparse_output: bool = False):
    """Exact LP over an explicit list of allowed coupling entries.

    The support is given directly as parallel ``rows`` / ``cols`` index
    arrays with ``cost_values`` holding the ground cost at exactly those
    entries, so callers that can evaluate the cost pointwise never
    build the dense ``(n, m)`` cost matrix.  Returns ``(matrix, n_iter, value)`` where
    ``value`` is the LP objective of the returned plan.
    """
    nnz = rows.size
    data = np.ones(nnz)
    variable_ids = np.arange(nnz)
    n, m = shape
    a_rows = sparse.coo_matrix((data, (rows, variable_ids)),
                               shape=(n, nnz)).tocsr()
    # Final column constraint dropped: redundant in the balanced problem.
    a_cols = sparse.coo_matrix((data, (cols, variable_ids)),
                               shape=(m, nnz)).tocsr()[:-1]
    a_eq = sparse.vstack([a_rows, a_cols], format="csr")
    b_eq = np.concatenate([mu, nu[:-1]])
    result = _linprog_with_presolve_retry(
        cost_values, a_eq, b_eq, what="the restricted transport LP",
        presolve_retry=presolve_retry)
    values = np.clip(result.x, 0.0, None)
    value = float(np.dot(cost_values, values))
    nit = int(getattr(result, "nit", 0) or 0)
    if sparse_output:
        matrix = sparse.csr_array((values, (rows, cols)), shape=(n, m))
        matrix.eliminate_zeros()
        return matrix, nit, value
    matrix = np.zeros((n, m))
    matrix[rows, cols] = values
    return matrix, nit, value
