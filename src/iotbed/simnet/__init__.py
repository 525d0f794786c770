"""Simulated device fleet: virtual transport, services, context, capture."""

from .capture import CaptureRecord, CaptureTap, read_capture, write_capture
from .clock import VirtualClock
from .context import (ContextEvent, ContextFeed, ContextPredicate,
                      load_trajectory)
from .devspec import DeviceSpec, load_device_spec
from .loopnet import LoopbackNetwork
from .memnet import DeviceHandle, MemoryNetwork
from .status import InternalStatusSample, read_status, write_status

# Transport backends by the name --backend, config files and RunOptions use.
BACKENDS = {"memory": MemoryNetwork, "loopback": LoopbackNetwork}

__all__ = [
    "BACKENDS",
    "CaptureRecord", "CaptureTap", "read_capture", "write_capture",
    "VirtualClock",
    "ContextEvent", "ContextFeed", "ContextPredicate", "load_trajectory",
    "DeviceSpec", "load_device_spec",
    "LoopbackNetwork",
    "DeviceHandle", "MemoryNetwork",
    "InternalStatusSample", "read_status", "write_status",
]
