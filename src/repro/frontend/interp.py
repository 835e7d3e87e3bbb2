"""Reference interpreter for the software IR.

This is the golden functional model: workloads run here to produce
expected memory images, and every uIR simulation is checked against it
(the paper's central claim is that microarchitecture transformations
never change behavior).  It also records dynamic execution counts that
the HLS and ARM baseline cycle models consume.

Parallel constructs execute with serial semantics (Cilk's serial
elision): ``detach`` runs the detached region inline, ``spawn`` calls
run synchronously, and ``sync`` is a no-op.  This is deterministic and
functionally equivalent to any legal parallel schedule for the
race-free programs we model.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import InterpreterError
from ..types import BoolType, FloatType, IntType, PointerType, TensorType
from .ir import (
    Argument,
    BasicBlock,
    Branch,
    Call,
    CondBranch,
    Constant,
    Detach,
    Function,
    GlobalArray,
    Instruction,
    Module,
    Phi,
    Reattach,
    Return,
    Sync,
    Value,
)

MAX_STEPS = 50_000_000


class Memory:
    """Flat word-addressable memory with globals laid out at the base."""

    def __init__(self, module: Module, heap_words: int = 0):
        self.module = module
        self.base: Dict[str, int] = {}
        addr = 0
        for name, glob in module.globals.items():
            self.base[name] = addr
            addr += glob.size_words
        self.words: List[float] = [0] * (addr + heap_words)
        #: Root arguments of the run that produced this image (set by
        #: :func:`repro.sim.simulate` and ``Workload.golden``); None =
        #: unknown, read as the workload's default arguments.
        self.root_args: Optional[Tuple] = None

    # -- raw access -----------------------------------------------------
    def read(self, addr: int):
        self._check(addr)
        return self.words[addr]

    def write(self, addr: int, value) -> None:
        self._check(addr)
        self.words[addr] = value

    def _check(self, addr: int) -> None:
        if not 0 <= addr < len(self.words):
            raise InterpreterError(
                f"memory access out of range: {addr} "
                f"(size {len(self.words)})")

    # -- array-level helpers ---------------------------------------------
    def set_array(self, name: str, values: Sequence) -> None:
        """Initialize global ``name``; tensor arrays take tuples."""
        glob = self.module.globals[name]
        base = self.base[name]
        if isinstance(glob.elem, TensorType):
            n = glob.elem.elements
            for i, tile in enumerate(values):
                if len(tile) != n:
                    raise InterpreterError(
                        f"tensor element {i} of @{name} has {len(tile)} "
                        f"values, expected {n}")
                for j, v in enumerate(tile):
                    self.write(base + i * n + j, v)
        else:
            for i, v in enumerate(values):
                self.write(base + i, v)

    def get_array(self, name: str) -> List:
        glob = self.module.globals[name]
        base = self.base[name]
        if isinstance(glob.elem, TensorType):
            n = glob.elem.elements
            return [tuple(self.words[base + i * n: base + (i + 1) * n])
                    for i in range(glob.size)]
        return list(self.words[base: base + glob.size])

    def snapshot(self) -> List[float]:
        return list(self.words)


class ExecStats:
    """Dynamic statistics collected during interpretation."""

    def __init__(self):
        self.instr_count = 0
        self.opcode_counts: Counter = Counter()
        self.block_counts: Counter = Counter()
        self.memory_accesses = 0
        self.spawned_tasks = 0
        self.call_counts: Counter = Counter()

    def __repr__(self) -> str:
        return (f"ExecStats(instrs={self.instr_count}, "
                f"mem={self.memory_accesses}, "
                f"spawns={self.spawned_tasks})")


class Interpreter:
    """Executes a module's ``main`` against a :class:`Memory`."""

    def __init__(self, module: Module, memory: Optional[Memory] = None,
                 block_hook=None):
        self.module = module
        self.memory = memory or Memory(module)
        self.stats = ExecStats()
        self.block_hook = block_hook
        self._steps = 0

    # ------------------------------------------------------------------
    def run(self, *args):
        """Run ``main(*args)``; returns its return value (or None)."""
        return self.run_function(self.module.main, list(args))

    def run_function(self, function: Function, args: Sequence):
        if len(args) != len(function.args):
            raise InterpreterError(
                f"@{function.name} expects {len(function.args)} args, "
                f"got {len(args)}")
        frame: Dict[Value, object] = dict(zip(function.args, args))
        return self._exec_region(function.entry, frame, stop_block=None)

    # ------------------------------------------------------------------
    def _exec_region(self, block: BasicBlock, frame: Dict[Value, object],
                     stop_block: Optional[BasicBlock]):
        """Execute from ``block`` until ``ret`` or a reattach-to-stop."""
        prev: Optional[BasicBlock] = None
        while True:
            if block is stop_block:
                return None
            self.stats.block_counts[
                f"{block.function.name}:{block.name}"] += 1
            if self.block_hook is not None:
                self.block_hook(block)
            self._run_phis(block, prev, frame)
            for instr in block.instructions:
                if isinstance(instr, Phi):
                    continue
                self._bump()
                if isinstance(instr, Return):
                    return (self._value(instr.value, frame)
                            if instr.value is not None else None)
                if isinstance(instr, Branch):
                    prev, block = block, instr.target
                    break
                if isinstance(instr, CondBranch):
                    cond = self._value(instr.cond, frame)
                    prev = block
                    block = instr.then_block if cond else instr.else_block
                    break
                if isinstance(instr, Detach):
                    # Serial elision: run the detached region inline.
                    self.stats.spawned_tasks += 1
                    self._exec_region(instr.body, frame,
                                      stop_block=instr.cont)
                    prev, block = block, instr.cont
                    break
                if isinstance(instr, Reattach):
                    if stop_block is not None and \
                            instr.cont is not stop_block:
                        raise InterpreterError(
                            "reattach to unexpected continuation")
                    return None
                if isinstance(instr, Sync):
                    continue
                self._exec_instr(instr, frame)
            else:
                raise InterpreterError(
                    f"block {block.name} fell through without terminator")

    def _run_phis(self, block: BasicBlock, prev: Optional[BasicBlock],
                  frame: Dict[Value, object]) -> None:
        phis = block.phis
        if not phis:
            return
        if prev is None:
            raise InterpreterError(
                f"entered block {block.name} with phis without predecessor")
        values = [self._value(phi.incoming_for(prev), frame) for phi in phis]
        for phi, v in zip(phis, values):
            frame[phi] = v
            self._bump()

    # ------------------------------------------------------------------
    def _value(self, v: Value, frame: Dict[Value, object]):
        if isinstance(v, Constant):
            return v.value
        if isinstance(v, GlobalArray):
            return self.memory.base[v.name]
        if v in frame:
            return frame[v]
        raise InterpreterError(f"use of undefined value {v.short()}")

    def _bump(self) -> None:
        self._steps += 1
        self.stats.instr_count += 1
        if self._steps > MAX_STEPS:
            raise InterpreterError("interpreter step limit exceeded")

    # ------------------------------------------------------------------
    def _exec_instr(self, instr: Instruction,
                    frame: Dict[Value, object]) -> None:
        op = instr.opcode
        self.stats.opcode_counts[op] += 1
        if isinstance(instr, Call):
            self.stats.call_counts[instr.callee.name] += 1
            args = [self._value(a, frame) for a in instr.operands]
            result = self.run_function(instr.callee, args)
            if instr.type.bits or result is not None:
                frame[instr] = result
            return
        vals = [self._value(o, frame) for o in instr.operands]
        if op in {"load", "tload", "store", "tstore"}:
            self._exec_memory(instr, vals, frame)
            return
        frame[instr] = self._eval_compute(instr, vals)

    def _exec_memory(self, instr: Instruction, vals,
                     frame: Dict[Value, object]) -> None:
        self.stats.memory_accesses += 1
        op = instr.opcode
        if op == "load":
            frame[instr] = self.memory.read(vals[0])
        elif op == "store":
            self.memory.write(vals[1], vals[0])
        elif op == "tload":
            t = instr.type
            assert isinstance(t, TensorType)
            base = vals[0]
            frame[instr] = tuple(
                self.memory.read(base + i) for i in range(t.elements))
        elif op == "tstore":
            tile, base = vals
            for i, v in enumerate(tile):
                self.memory.write(base + i, v)

    # ------------------------------------------------------------------
    def _eval_compute(self, instr: Instruction, vals):
        op = instr.opcode
        t = instr.type
        if op == "gep":
            ptr_t = instr.operands[0].type
            assert isinstance(ptr_t, PointerType)
            return vals[0] + int(vals[1]) * ptr_t.pointee.words
        if op in {"add", "sub", "mul", "div", "rem", "and", "or", "xor",
                  "shl", "lshr", "ashr"}:
            return self._int_binop(op, vals[0], vals[1], t)
        if op in {"fadd", "fsub", "fmul", "fdiv"}:
            a, b = float(vals[0]), float(vals[1])
            if op == "fadd":
                return a + b
            if op == "fsub":
                return a - b
            if op == "fmul":
                return a * b
            if b == 0.0:
                raise InterpreterError("float division by zero")
            return a / b
        if op in {"eq", "ne", "lt", "le", "gt", "ge"}:
            a, b = vals
            return {"eq": a == b, "ne": a != b, "lt": a < b,
                    "le": a <= b, "gt": a > b, "ge": a >= b}[op]
        if op == "select":
            return vals[1] if vals[0] else vals[2]
        if op == "neg":
            return self._wrap(-vals[0], t)
        if op == "fneg":
            return -float(vals[0])
        if op == "not":
            return self._wrap(~int(vals[0]), t)
        if op == "abs":
            return abs(vals[0])
        if op == "exp":
            return math.exp(float(vals[0]))
        if op == "sqrt":
            return math.sqrt(float(vals[0]))
        if op == "itof":
            return float(vals[0])
        if op == "ftoi":
            return int(vals[0])
        if op in {"tmul", "tadd", "tsub"}:
            return self._tensor_binop(op, vals[0], vals[1], t)
        if op == "trelu":
            return tuple(v if v > 0 else 0.0 for v in vals[0])
        raise InterpreterError(f"unsupported opcode {op}")

    @staticmethod
    def _wrap(value: int, t) -> int:
        if isinstance(t, IntType):
            return t.wrap(int(value))
        if isinstance(t, BoolType):
            return int(value) & 1
        return int(value)

    def _int_binop(self, op: str, a, b, t):
        a, b = int(a), int(b)
        if op == "add":
            r = a + b
        elif op == "sub":
            r = a - b
        elif op == "mul":
            r = a * b
        elif op == "div":
            if b == 0:
                raise InterpreterError("integer division by zero")
            r = int(a / b) if (a < 0) != (b < 0) and a % b else a // b
        elif op == "rem":
            if b == 0:
                raise InterpreterError("integer remainder by zero")
            r = a - (int(a / b) if (a < 0) != (b < 0) and a % b
                     else a // b) * b
        elif op == "and":
            r = a & b
        elif op == "or":
            r = a | b
        elif op == "xor":
            r = a ^ b
        elif op == "shl":
            r = a << (b & 31)
        elif op == "lshr":
            width = t.bits if t.bits else 32
            r = (a & ((1 << width) - 1)) >> (b & 31)
        elif op == "ashr":
            r = a >> (b & 31)
        else:
            raise InterpreterError(f"bad int binop {op}")
        return self._wrap(r, t)

    @staticmethod
    def _tensor_binop(op: str, a: Tuple, b: Tuple, t: TensorType):
        if op == "tadd":
            return tuple(x + y for x, y in zip(a, b))
        if op == "tsub":
            return tuple(x - y for x, y in zip(a, b))
        # tmul: rows x cols matrix product (square tiles).
        n, m = t.rows, t.cols
        out = []
        for i in range(n):
            for j in range(m):
                acc = 0.0
                for k in range(m):
                    acc += a[i * m + k] * b[k * m + j]
                out.append(acc)
        return tuple(out)


def run_module(module: Module, memory: Optional[Memory] = None, *args):
    """One-shot helper: interpret ``main(*args)`` and return (ret, interp)."""
    interp = Interpreter(module, memory)
    result = interp.run(*args)
    return result, interp
