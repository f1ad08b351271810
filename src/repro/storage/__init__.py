"""Accelerator-specific storage layouts (section 5.3)."""

from .log import LogError, LogStore, RECORD_HEADER_LEN

__all__ = ["LogStore"]
