"""Exception hierarchy shared across the testbed."""


class TestbedError(Exception):
    """Base class for all testbed errors."""


class ValidationError(TestbedError):
    """An object or run option failed validation, or an action parameter
    failed its check when the action ran."""


class TraceError(TestbedError):
    """Trace log misuse (append after close) or storage failure."""


class TransportError(TestbedError):
    """Virtual/loopback network failure: port conflict, unknown device, dead device."""


class AnalysisError(TestbedError):
    """A malformed input or artifact file, reported as "<path>:<line>: ..."
    (scenario, template, device spec, trajectory, capture, status,
    findings, report, model, config, labels and CSV files), or data
    insufficient or incompatible for baseline/anomaly analysis."""
