"""Mutants of hesslab's code, each with the test that must catch it.

A mutant is one function's source with one textual edit.  `apply` compiles
the edited source in the namespace of the function's module and swaps its
code into the function through pytest's `monkeypatch`, so the mutant lives
for one test and no file on disk changes.  Its guard is a test
function, named as "test_module.test_function", that must fail under the
mutant with an AssertionError, and that takes no fixture and no Hypothesis
draw, so that the same inputs decide it every time.  A change that adds a
check adds its mutant here.
"""

import functools
import importlib
import inspect
import textwrap
from dataclasses import dataclass


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str    # the module of the mutated function, e.g. hesslab.gauss2
    function: str  # its name in that module, or "Class.method"
    old: str       # text that occurs exactly once in the function's source
    new: str       # its replacement
    guard: str     # the test that must fail, "test_module.test_function"


MUTANTS = (
    # Reduced includes q = root + p, where x lies in (1, 1 + 1/q).  On
    # SL(2,Z) inputs q is even and root + p odd, so no such state arises and
    # only the general walk can see the edit (NOTES.md, "The 2D period from
    # the first reduced quotient").
    Mutant("reduced_strict_upper", "hesslab.gauss2", "_first_reduced",
           "not (root - p < q <= root + p", "not (root - p < q < root + p",
           "test_gauss2.test_first_reduced_is_first_recurring_state"),
    # The period's lengths sit at even places only with this rotation.
    Mutant("rotation_parity_flipped", "hesslab.gauss2", "_hyperbolic_period",
           "(start + (c < 0)) % 2 == 0", "(start + (c < 0)) % 2 == 1",
           "test_gauss2."
           "test_sail_period_matches_seen_state_walk_on_shears_and_powers"),
    # floor((p + sqrt D) / q) needs the (q < 0) term when q < 0 divides
    # p + root; as above, only the general walk meets such a state.
    Mutant("preperiod_floor_without_negative_q", "hesslab.gauss2",
           "_first_reduced",
           "(p + root + (q < 0)) // q", "(p + root) // q",
           "test_gauss2.test_first_reduced_floor_for_negative_q"),
    # The sign of the parabolic k follows b, or -c when b = 0.
    Mutant("parabolic_sign_flipped", "hesslab.gauss2", "classify_sl2",
           "s = 1 if b > 0", "s = 1 if b < 0",
           "test_gauss2.test_classify_parabolic_under_shear_words"),
    # The enclosure's lower bound of r * (c2 r + c1) must take r's left end
    # where that factor is >= 0: the upper one collapses the enclosure onto
    # a wrong value, whose floor is then taken at once.
    Mutant("enclosure_end_swapped", "hesslab.numberfield",
           "NumberField._enclose",
           "lo * (a if lo >= 0 else b) + c0",
           "lo * (b if lo >= 0 else a) + c0",
           "test_numberfield.test_field_arithmetic"),
    # r^4 = -(c0 r + c1 r^2 + c2 r^3): its c0 term belongs to r, not r^2.
    Mutant("r4_term_misplaced", "hesslab.numberfield", "NumberField.mul",
           "- p4 * c0 - p3 * c1", "- p4 * c1 - p3 * c1",
           "test_numberfield."
           "test_products_match_the_oracle_on_fixed_numerators"),
    # A Newton step is kept only inside the old interval and across a sign
    # change of p; on the skewed cubic the step overshoots the root.
    Mutant("newton_step_unchecked", "hesslab.numberfield",
           "NumberField.refine_to",
           "if (a << up <= lo", "if True or (a << up <= lo",
           "test_numberfield."
           "test_refine_to_takes_newton_steps_and_bisections"),
    # p(m / 2^k) scaled by 2^3k: c0's term takes 2^3k; at k = 0 every power
    # is 1, so only a refined interval sees the edit.
    Mutant("sign_at_power_of_two", "hesslab.numberfield",
           "NumberField._sign_at",
           "(c0 << 3 * k)", "(c0 << 2 * k)",
           "test_numberfield.test_refinement_matches_the_generic_oracle"),
    # Only an irrational value's ceiling is its floor + 1.
    Mutant("ceiling_always_floor_plus_one", "hesslab.sail3", "_floor_ceil",
           "if num[1] or num[2]:", "if True:",
           "test_sail3.test_floor_ceil_takes_one_floor_off_the_rationals"),
)


def apply(mutant: Mutant, monkeypatch) -> None:
    """Replace mutant.function by its edited source for one test."""
    module = importlib.import_module(mutant.module)
    function = functools.reduce(getattr, mutant.function.split("."), module)
    source = textwrap.dedent(inspect.getsource(function))
    if source.count(mutant.old) != 1:
        raise LookupError("%s: %r does not occur once in %s"
                          % (mutant.name, mutant.old, mutant.function))
    code = compile(source.replace(mutant.old, mutant.new),
                   "<mutant %s>" % mutant.name, "exec")
    defined = {}
    exec(code, vars(module), defined)
    # swap the code object, so that names imported from the module before
    # the patch run the mutant too
    monkeypatch.setattr(function, "__code__",
                        defined[function.__name__].__code__)


def guard(name: str):
    """The test function named "test_module.test_function"."""
    module, function = name.split(".")
    return getattr(importlib.import_module(module), function)
