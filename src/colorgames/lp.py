"""Exact linear feasibility over the rationals.

The solver runs a phase-1 simplex with Bland's pivoting rule on integer
rows (fraction-free, integer-preserving elimination in the style of
Edmonds and Bareiss): no tolerances, no floating point, guaranteed
termination under degeneracy.  Every variable is nonnegative and every
row is an ``=`` or a ``>=`` row, the shape of the load systems the
deciders build; a free variable is written x+ - x-, and a ``<=`` row
negated.  Callers encode strict positivity through a normalization row.
A system holds each row as an integer row (coefficient list, relation,
right-hand side).  Homogeneous equality rows can be factored once
(``factor_rows``) into a basis feasible at x = 0, from which systems
that lead with them start.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, mul

from .arena import ContractError

RELATIONS = ("=", ">=")
_denominator = attrgetter("denominator")


@dataclass(frozen=True)
class Constraint:
    """A row a.x (relation) b with rational entries, the public way to
    write one; a ``LinearSystem`` holds it as its integer row."""

    coeffs: tuple[Fraction | int, ...]
    relation: str
    rhs: Fraction | int

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise ContractError(f"unknown relation {self.relation!r}")

    @property
    def row(self) -> tuple[list[int], str, int]:
        """(s*coeffs, relation, s*rhs) for the least s > 0 that makes the
        coefficients and the right-hand side integral."""
        scale = lcm(self.rhs.denominator, *map(_denominator, self.coeffs))
        rhs = self.rhs.numerator * (scale // self.rhs.denominator)
        return ([c.numerator * (scale // c.denominator) for c in self.coeffs],
                self.relation, rhs)


class LinearSystem:
    """A conjunction of exact linear constraints over m variables, each
    x_j >= 0, held as integer rows (coefficient list, relation,
    right-hand side).  ``start``, when given, is the ``factor_rows`` form
    of the system's leading rows.
    """

    def __init__(self, num_vars: int, constraints=(),
                 start: FactoredRows | None = None):
        self.num_vars = num_vars
        self.constraints: list[tuple[list[int], str, int]] = []
        for con in constraints:
            if isinstance(con, Constraint):
                self.add_constraint(con)
            else:
                self.add(*con)
        self._lead(start)

    @classmethod
    def integral(cls, num_vars: int, rows: list,
                 start: FactoredRows | None = None) -> LinearSystem:
        """A system over integer rows of width ``num_vars``, held as they
        are: the rows the deciders build."""
        system = cls.__new__(cls)
        system.num_vars, system.constraints = num_vars, rows
        system._lead(start)
        return system

    def _lead(self, start: FactoredRows | None) -> None:
        self.start = start
        if start and (start.num_vars != self.num_vars or tuple(
                self.constraints[:len(start.rows)]) != start.rows):
            raise ContractError("factored rows must lead the system")

    def add_constraint(self, con: Constraint) -> None:
        if len(con.coeffs) != self.num_vars:
            raise ContractError(
                f"constraint has {len(con.coeffs)} coefficients, "
                f"system has {self.num_vars} variables")
        self.constraints.append(con.row)

    def add(self, coeffs, relation: str, rhs) -> None:
        self.add_constraint(Constraint(
            tuple(Fraction(c) for c in coeffs), relation, Fraction(rhs)))

    def satisfied_by(self, x) -> bool:
        """Exact check of every row and of x >= 0 at a vector of
        rationals (ints or Fractions)."""
        if len(x) != self.num_vars:
            return False
        den = lcm(*map(_denominator, x))
        xs = [v.numerator * (den // v.denominator) for v in x]
        return min(xs, default=0) >= 0 and all(
            _holds(row, xs, den) for row in self.constraints)


def _holds(row, x, den: int = 1) -> bool:
    """Does the integer row hold at x / den (den > 0)?"""
    a, relation, b = row
    lhs = sum(map(mul, a, x))
    return lhs == b * den if relation == "=" else lhs >= b * den


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    assignment: tuple[Fraction, ...] | None = None


def solve_feasibility(system: LinearSystem) -> FeasibilityResult:
    """Decide exact feasibility; a Feasible result carries an assignment
    that satisfies every constraint with zero residual.

    Each tableau row is a primitive integer vector, meaningful only up to
    a positive factor: the rational row it stands for is the integer row
    divided by its entry in the row's basic column.  Ratio tests and
    reduced-cost signs do not change under positive row scaling, so the
    pivot sequence is the one a rational tableau would take.
    """
    m = system.num_vars
    start = system.start
    rows = system.constraints[len(start.rows) if start else 0:]
    nstruct = m + sum(1 for _, relation, _ in rows if relation != "=")

    # Each row starts as its integer row.  Artificial variables get basis
    # indices from nstruct on but no tableau column: a basic artificial
    # has zero reduced cost and one that leaves the basis may not
    # return, so their columns are never read.  A warm start copies the
    # factored rows and reduces each further row by them; the positive
    # factors this puts on its artificial leave phase 1 valid.
    pad = [0] * (nstruct - m)
    tableau = [row + pad for row in start.tableau] if start else []
    basis = list(start.basis) if start else []
    factored = list(zip(tableau, basis))
    rhs = [0] * len(tableau)
    zrow = [0] * nstruct
    art_rows: list[list[int]] = []
    slack_at = m
    art_at = nstruct
    for a, relation, b in rows:
        row = [*a, *pad]
        if relation == "=":
            slack_col = -1
        else:
            slack_col = slack_at
            slack_at += 1
            row[slack_col] = -1
        for prow, c in factored:
            f = row[c]
            if f:
                piv = prow[c]
                row = [piv * v - f * p for v, p in zip(row, prow)]
                b *= piv
        if b < 0:
            row = [-v for v in row]
            b = -b
        # A slack entering with a positive entry serves as the initial
        # basic variable; otherwise the row gets an artificial variable.
        if slack_col >= 0 and row[slack_col] > 0:
            basis.append(slack_col)
        else:
            basis.append(art_at)
            art_at += 1
            art_rows.append(row)
        g = gcd(b, *row)
        tableau.append([v // g for v in row] if g > 1 else row)
        rhs.append(b // g if g > 1 else b)

    # Phase-1 objective: minimize the sum of artificial variables.  The
    # reduced-cost row is minus the sum of the artificial rows as
    # written.
    for row in art_rows:
        zrow = [z - v for z, v in zip(zrow, row)]
    zrow = _primitive(zrow)

    # every tableau row counts, factored ones too, so that a warm and a
    # cold solve of one system get the same budget
    max_iters = 1000 + 50 * (2 * len(tableau) + nstruct)
    for _ in range(max_iters):
        # Bland: entering column is the smallest index with negative
        # reduced cost.
        enter = -1
        for j, z in enumerate(zrow):
            if z < 0:
                enter = j
                break
        if enter < 0:
            break
        # Leaving row: minimum ratio rhs_i / a_i, compared by
        # cross-multiplying; ties by smallest basic variable.
        leave = -1
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave, best_b, best_a = i, rhs[i], a
                    continue
                lhs, rhs_cmp = rhs[i] * best_a, best_b * a
                if lhs < rhs_cmp or (lhs == rhs_cmp
                                     and basis[i] < basis[leave]):
                    leave, best_b, best_a = i, rhs[i], a
        if leave < 0:
            raise RuntimeError("phase-1 objective unbounded; solver bug")
        _pivot(tableau, rhs, zrow, enter, leave)
        basis[leave] = enter
    else:
        raise RuntimeError("simplex exceeded its iteration budget")

    if any(rhs[i] for i, c in enumerate(basis) if c >= nstruct):
        return FeasibilityResult(False)

    x = [Fraction(0)] * m
    for i, c in enumerate(basis):
        if c < m and rhs[i]:
            x[c] = Fraction(rhs[i], tableau[i][c])
    assignment = tuple(x)
    if not system.satisfied_by(assignment):
        raise RuntimeError("simplex produced an assignment that fails "
                           "exact re-checking; solver bug")
    return FeasibilityResult(True, assignment)


@dataclass(frozen=True)
class FactoredRows:
    """Homogeneous equality rows, eliminated so that tableau row i is basic
    in column basis[i] (entry > 0, right-hand side 0); implied rows go."""

    num_vars: int
    rows: tuple[tuple[list[int], str, int], ...]
    tableau: tuple[list[int], ...]
    basis: tuple[int, ...]


def factor_rows(num_vars: int, rows) -> FactoredRows:
    """Eliminate each integer row in turn on its first unit entry (else
    its first nonzero entry), by the same fraction-free pivot as phase 1."""
    rows = tuple(rows)
    if any(relation != "=" or rhs or len(a) != num_vars
           for a, relation, rhs in rows):
        raise ContractError("only homogeneous equality rows factor")
    tableau = [list(a) for a, _, _ in rows]
    zero, zrow, kept = [0] * len(tableau), [0] * num_vars, []
    for i, row in enumerate(tableau):
        nz = [j for j, v in enumerate(row) if v]
        if nz:
            col = next((j for j in nz if row[j] in (1, -1)), nz[0])
            if row[col] < 0:
                row[:] = [-v for v in row]
            _pivot(tableau, zero, zrow, col, i)
            kept.append((row, col))
    return FactoredRows(num_vars, rows, tuple(r for r, _ in kept),
                        tuple(c for _, c in kept))


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _pivot(tableau, rhs, zrow, enter, leave):
    """Eliminate the entering column from every other row with a nonzero
    there, keeping rows primitive; the pivot row keeps its scale."""
    prow = tableau[leave]
    piv = prow[enter]
    nz = [(j, p) for j, p in enumerate(prow) if p]
    for i, row in enumerate(tableau):
        f = row[enter]
        if f and i != leave:
            _eliminate(row, prow, nz, piv, f)
            b = piv * rhs[i] - f * rhs[leave]
            g = gcd(b, *row)
            if g > 1:
                row[:] = [v // g for v in row]
                b //= g
            rhs[i] = b
    f = zrow[enter]
    if f:  # zero while rows are factored
        _eliminate(zrow, prow, nz, piv, f)
        zrow[:] = _primitive(zrow)


def _eliminate(row, prow, nz, piv, f):
    """row <- piv*row - f*prow in place; nz lists prow's nonzeros, which
    are all a unit pivot has to touch."""
    if piv == 1:
        for j, p in nz:
            row[j] -= f * p
    else:
        row[:] = [piv * v - f * p for v, p in zip(row, prow)]


def integer_scale(assignment, system: LinearSystem) -> list[int]:
    """Rescale a rational solution of an (up to one normalization row)
    homogeneous system into a nonnegative integer solution.

    Every entry must be nonnegative, as every column is.  Homogeneous
    constraints are invariant under positive scaling, so multiplying by
    the least common multiple of the denominators keeps them satisfied
    exactly.
    """
    homogeneous = [row for row in system.constraints if row[2] == 0]
    if len(system.constraints) - len(homogeneous) > 1:
        raise ContractError(
            "system has more than one non-homogeneous constraint")
    values = [Fraction(v) for v in assignment]
    if any(v < 0 for v in values):
        raise ContractError("assignment has negative entries")
    if all(v == 0 for v in values):
        raise ContractError("assignment has no positive entry")
    scale = lcm(*(v.denominator for v in values))
    scaled = [v.numerator * (scale // v.denominator) for v in values]
    for row in homogeneous:
        if not _holds(row, scaled):
            raise RuntimeError("scaled solution violates a homogeneous "
                               "constraint; scaling bug")
    return scaled
