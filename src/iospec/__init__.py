"""Specify, interpret, and probabilistically test console I/O behavior.

The names below are loaded on first use (PEP 562): importing the package
imports no submodule, so a command that only parses a spec never loads
the interpreters, the harness or the subprocess runner.
"""

import importlib

# The public names, by the submodule that defines them.
_EXPORTS = {
    "harness": (
        "ConfigError",
        "Counterexample",
        "FeedbackMode",
        "ReportFormat",
        "TestConfig",
        "TestReport",
        "Verdict",
        "format_feedback",
        "run_test_suite",
    ),
    "parser": (
        "ParseError", "SourceSpan", "StaticError", "parse_spec", "render_spec", "render_term",
    ),
    "runner": (
        "ExitKind",
        "Read",
        "RunOutcome",
        "SpawnError",
        "SubprocessConfig",
        "Write",
        "run_scripted",
        "run_subprocess",
    ),
    "semantics": (
        "EvalError",
        "GenerationFailureError",
        "GenerationLimits",
        "InputRejectedError",
        "InputsExhaustedError",
        "InterpretError",
        "LimitExceededError",
        "SamplingPolicy",
        "SurplusInputsError",
        "UnboundCurrentError",
        "accept",
        "interpret",
        "sample_generalized_trace",
    ),
    "syntax": (
        "AllVar",
        "Apply",
        "Branch",
        "CurrentVar",
        "DEFAULT_REGISTRY",
        "EMPTY",
        "ExplicitSet",
        "Exit",
        "FunctionRegistry",
        "FunctionSpec",
        "IntConst",
        "Integers",
        "Naturals",
        "ReadInput",
        "Sort",
        "SortError",
        "Spec",
        "SpecStructureError",
        "TillExit",
        "Violation",
        "ViolationKind",
        "WriteOutput",
        "node_at",
        "normalize_spec",
        "variables_of",
        "well_formed",
    ),
    "traces": (
        "AlignmentMismatch",
        "Covered",
        "EPSILON",
        "GeneralizedTrace",
        "In",
        "Out",
        "OutputMismatch",
        "OutputWordSet",
        "PreconditionViolation",
        "Trace",
        "covers",
        "normalize",
        "parse_generalized_trace",
        "parse_trace",
        "render_trace",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # `iospec.runner` after a bare `import iospec`
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
