"""Exception hierarchy shared across the testbed."""


class TestbedError(Exception):
    """Base class for all testbed errors."""


class ScenarioError(TestbedError):
    """A scenario that parsed but cannot run: no `devices` option, a dut
    missing from the device file, or criteria for an unknown test kind."""


class ValidationError(TestbedError):
    """Action or object failed validation against the registry/schema."""


class RegistryError(TestbedError):
    """Element registry conflict (duplicate id, unknown id)."""


class TraceError(TestbedError):
    """Trace log misuse (append after close) or storage failure."""


class TransportError(TestbedError):
    """Virtual/loopback network failure: port conflict, unknown device, dead device."""


class AnalysisError(TestbedError):
    """A malformed input or artifact file, reported as "<path>:<line>: ..."
    (scenario, template, device spec, trajectory, capture, status,
    findings, report, model, config, labels and CSV files), or data
    insufficient or incompatible for baseline/anomaly analysis."""
