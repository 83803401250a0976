"""The Monet kernel substrate (paper sections 2, 3.2, 4.2, 5).

A pure-Python/numpy reimplementation of the parts of the Monet
database kernel the paper relies on: Binary Association Tables with
mirror views and void columns, the BAT algebra of Figure 4 with
multiple run-time-dispatched implementations per operator, property
management (ordered / key / synced), the datavector accelerator, a
simulated virtual-memory pager with page-fault accounting, and the MIL
program representation + interpreter.
"""

from . import atoms, operators
from .atoms import Atom, atom
from .bat import (BAT, bat_dense_head, bat_from_columns_values,
                  bat_from_pairs, concat_bats, empty_bat)
from .buffer import BufferManager, get_manager, set_manager, use
from .column import (Column, FixedColumn, VarColumn, VoidColumn,
                     column_from_values)
from .heap import FixedHeap, MappedVarHeap, VarHeap
from .kernel import MonetKernel
from .storage import (CatalogLock, HeapStorage, MemoryBackend,
                      MmapBackend, catalog_generation, open_kernel,
                      open_with_protocol, residency_report,
                      residency_snapshot, save_kernel)
from .mil import MILInterpreter, MILProgram, MILStmt, MILTrace, Var
from .multiproc import (MultiprocExecutor, PendingTask, TaskOutcome,
                        register_task_kind, result_checksum,
                        run_program_serial, ship_value)
from .optimizer import Optimizer, dispatch_disabled, get_optimizer
from .properties import Props, compute_props, synced, verify
from .vectorized import pin_malloc_thresholds

pin_malloc_thresholds()

__all__ = [
    "atoms", "operators",
    "Atom", "atom",
    "BAT", "bat_dense_head", "bat_from_columns_values", "bat_from_pairs",
    "concat_bats", "empty_bat",
    "BufferManager", "get_manager", "set_manager", "use",
    "Column", "FixedColumn", "VarColumn", "VoidColumn",
    "column_from_values",
    "FixedHeap", "MappedVarHeap", "VarHeap",
    "MonetKernel",
    "CatalogLock", "HeapStorage", "MemoryBackend", "MmapBackend",
    "catalog_generation", "open_kernel", "open_with_protocol",
    "residency_report", "residency_snapshot", "save_kernel",
    "MILInterpreter", "MILProgram", "MILStmt", "MILTrace", "Var",
    "MultiprocExecutor", "PendingTask", "TaskOutcome",
    "register_task_kind", "result_checksum",
    "run_program_serial", "ship_value",
    "Optimizer", "dispatch_disabled", "get_optimizer",
    "Props", "compute_props", "synced", "verify",
]
