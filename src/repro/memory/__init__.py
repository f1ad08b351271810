"""Demikernel memory management: transparent registration, free-protection."""

from .buffer import Buffer, BufferError
from .manager import MemoryManager, Region

__all__ = ["Buffer", "BufferError", "MemoryManager"]
