"""Exception classes shared across the solver stack, and how a run reports
each one: the CLI prints `label: message` and exits with `exit_code`, and a
sweep that halts on the error writes `status` in its last row.  A subclass
without its own triple reports as the base class does.
"""


class KamtoriError(Exception):
    """Base class for all solver errors."""

    label, exit_code, status = "error", 1, "error"


class DivisorTooSmall(KamtoriError):
    """A cohomology divisor |lam - exp(2 pi i k.omega)| fell below its floor:
    lam is too near a resonance for the mode box."""

    label, exit_code, status = "small divisor", 3, "divisor"

    def __init__(self, k, divisor, floor):
        self.k = tuple(int(c) for c in k)
        self.divisor = float(divisor)
        self.floor = float(floor)
        super().__init__(
            f"divisor {self.divisor:.3e} at mode k={self.k} below floor {self.floor:.3e}"
        )


class FrameSingular(KamtoriError):
    """The adapted frame cannot be built: DK^T DK is ill-conditioned, or a
    frame matrix is not finite at a grid point."""

    label, exit_code, status = "frame singular", 8, "frame-singular"


class NonDegeneracyFailure(KamtoriError):
    """The averaged 2d x 2d twist system is numerically singular: `det` is
    the determinant of the block divided by `scale`, its largest absolute
    row sum (nan when scale is 0 or not finite)."""

    label, exit_code, status = "non-degeneracy failure", 2, "non-degenerate"

    def __init__(self, det, scale):
        self.det = complex(det)
        self.scale = float(scale)
        super().__init__(
            f"non-degeneracy determinant {abs(self.det):.3e} below threshold "
            f"(scale {self.scale:.3e})"
        )


class NoConvergence(KamtoriError):
    """Newton iteration ran out of iterations before reaching tolerance."""

    label, exit_code, status = "no convergence", 4, "no-convergence"

    def __init__(self, iterations, trace):
        self.iterations = int(iterations)
        self.trace = list(trace)
        last = self.trace[-1] if self.trace else float("nan")
        super().__init__(
            f"no convergence after {self.iterations} iterations (last residual {last:.3e})"
        )


class Diverged(KamtoriError):
    """Newton iteration diverged: a residual is not finite, or two consecutive
    residuals exceed the first one."""

    label, exit_code, status = "diverged", 5, "diverged"

    def __init__(self, trace):
        self.trace = list(trace)
        super().__init__(
            f"diverged after {len(self.trace)} evaluations (residual {self.trace[-1]:.3e}, "
            f"first {self.trace[0]:.3e})"
        )


class JetOverflow(KamtoriError):
    """A Lindstedt engine met an order whose right-hand side or solution is
    not finite; `order` names the first such order."""

    label, exit_code, status = "jet overflow", 6, "jet-overflow"

    def __init__(self, order, what):
        self.order = int(order)
        super().__init__(f"order {self.order} of the jet is not finite: its {what} "
                         "overflows")


class InexactJet(KamtoriError):
    """A Lindstedt engine was given a jet (or base, order 0) that is not
    exact: `order` names the first input order whose residual on the grid
    exceeds `tol`, and `residual` is its largest value."""

    label, exit_code, status = "inexact jet", 7, "inexact-jet"

    def __init__(self, order, residual, tol):
        self.order = int(order)
        self.residual = float(residual)
        self.tol = float(tol)
        super().__init__(f"input order {self.order} is not exact: its residual reaches "
                         f"{self.residual:.3e} on the grid, above {self.tol:.1e}")


class NormalizationDiverged(KamtoriError):
    """Root finding for the normalizing shift left its trust region."""


class ConfigError(KamtoriError):
    """Run configuration could not be parsed or validated."""

    label, exit_code = "config error", 64

    def __init__(self, message, location=None):
        self.location = location
        if location:
            message = f"{location}: {message}"
        super().__init__(message)
