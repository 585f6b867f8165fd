"""Predicted check reports, made from the inputs alone.

Each predictor gives {report name: (passed, degree)} for the selected
check names at an explicit degree M (None: the CLI's default degrees), and
lists the sympy questions (see oracle.py) its predictions need.
"""

from __future__ import annotations

from oracle import encode_bracket
from reference import is_homogeneous_linear, series_of_table, table_degrees, truncate


class DegreeTooHigh(Exception):
    """The requested degree exceeds what the stored table supports."""


class TableChecks:
    """A copoisson table, or the qmap the table induces."""

    def __init__(self, d, bound, table, kind):
        self.d, self.bound, self.table, self.kind = d, bound, table, kind
        self.degrees = table_degrees(table)
        self.low = None

    def requests(self):
        return [{"op": "jacobi_low", "d": self.d,
                 "f": encode_bracket(series_of_table(self.table))}]

    def take(self, answers):
        (self.low,) = answers

    def names(self):
        names = ["antipode-coanti", "cojacobi", "coleibniz", "counit-kill",
                 "delta-derivation", "skew"]
        if self.kind == "copoisson":
            names += ["cojacobi-coeffs", "support"]
        return sorted(names)

    def predict(self, names, M):
        b = self.bound
        afford = b - 1 if 0 in self.degrees else b
        seen = lambda N: {k for k in self.degrees if k <= N}
        jac = lambda N: self.low is None or self.low > N
        out = {}
        for name in names:
            N = M if M is not None else {"cojacobi": min(b, afford),
                                         "cojacobi-coeffs": b - 1}.get(name, b)
            limit = {"cojacobi": afford, "cojacobi-coeffs": b - 1}.get(name, b)
            if name != "support" and N > limit:
                raise DegreeTooHigh(name)
            out.update({
                "skew": {"skew": (True, N)},
                "counit-kill": {"counit-kill": (True, N)},
                "coleibniz": {"coleibniz[definition]": (True, N)},
                "cojacobi": {"cojacobi": (jac(N), N)},
                "cojacobi-coeffs": {"cojacobi-coeffs": (jac(N), N)},
                "delta-derivation": {"delta-derivation": (seen(N) <= {1}, N)},
                "antipode-coanti": {"antipode-coanti": (
                    not any(k % 2 == 0 for k in seen(N)), N)},
                "support": {"support": (self.degrees <= {1}, b)},
            }[name])
        return out


class BracketChecks:
    """A polynomial or series bracket, or the linear bracket of constants."""

    def __init__(self, d, max_degree, f, series=False, consts=False):
        self.d, self.max_degree, self.f = d, max_degree, f
        self.series, self.consts = series, consts
        self.low = None

    def requests(self):
        f = {ij: truncate(p, self.max_degree) for ij, p in self.f.items()} \
            if self.series else self.f
        return [{"op": "jacobi_low", "d": self.d, "f": encode_bracket(f)}]

    def take(self, answers):
        (self.low,) = answers

    def names(self):
        if self.series:
            return ["jacobi"]
        return sorted(["jacobi", "poisson-hopf", "eps-s"]
                      + (["linear-relations"] if self.consts else []))

    def predict(self, names, M):
        N = self.max_degree if M is None else M
        jac = self.low is None or (self.series and self.low > N)
        linear = is_homogeneous_linear(self.f)
        table = {"jacobi": ("jacobi", (jac, N)),
                 "poisson-hopf": ("poisson-hopf", (linear, N)),
                 "eps-s": ("eps-s-morphisms", (True, N)),
                 "linear-relations": ("linear-relations", (jac, 1))}
        return dict(table[name] for name in names)


class FinhopfChecks:
    def requests(self):
        return []

    def take(self, answers):
        pass

    def names(self):
        return ["hopf-axioms"]

    def predict(self, names, M):
        return {"hopf-axioms": (True, 0)}
