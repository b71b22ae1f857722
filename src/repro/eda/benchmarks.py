"""Benchmark netlist generators: the ten Table I designs.

The paper evaluates six ISCAS89 benchmarks, two AI-accelerator MAC cores
and two open-source RISC-V cores. The original netlists (and the
commercial flow that mapped them) are not distributable, so this module
*generates* structurally faithful equivalents:

* **ISCAS89-class** — random sequential controllers at the published
  gate/FF counts (deterministic per seed);
* **MAC cores** — real array multipliers + accumulators built from HA/FA
  cells (structural, not random);
* **RISC-V-class** — synthetic cores with register file, ALU (ripple
  adder + logic unit + result muxes) and decoder random-logic, at sizes
  that reproduce the paper's runtime ladder.
"""

from __future__ import annotations

import numpy as np

from ..utils.rng import make_rng
from .netlist import GateNetlist

__all__ = ["BENCHMARKS", "build_benchmark", "benchmark_names"]

#: Published ISCAS89 sizes (gates, flops) and paper Table I ordering.
_ISCAS = {
    "s298": (119, 14),
    "s386": (159, 6),
    "s526": (193, 21),
    "s820": (289, 5),
    "s1196": (529, 18),
    "s1488": (653, 6),
}

_GATE_POOL = ("NAND2_X1", "NOR2_X1", "NAND3_X1", "NOR3_X1", "AND2_X1",
              "OR2_X1", "INV_X1", "XOR2_X1", "AOI21_X1", "OAI21_X1",
              "MUX2_X1")


def _random_sequential(name: str, n_gates: int, n_flops: int,
                       n_inputs: int, n_outputs: int,
                       seed: int) -> GateNetlist:
    """Random controller: FF ring + combinational cloud (ISCAS89-class)."""
    rng = make_rng(seed)
    nl = GateNetlist(name)
    nets = [nl.add_input(f"pi{i}") for i in range(n_inputs)]
    ff_outs = []
    for i in range(n_flops):
        q = f"ff{i}_q"
        ff_outs.append(q)
        nets.append(q)
    gate_count = 0
    produced = []
    while gate_count < n_gates - n_flops:
        cell = str(rng.choice(_GATE_POOL))
        from ..cells import get_cell
        cell_obj = get_cell(cell)
        k = len(cell_obj.inputs)
        # Prefer recent nets for locality, mix in FF outputs.
        pool = nets[-min(len(nets), 40):] + ff_outs
        chosen = [str(pool[rng.integers(0, len(pool))]) for _ in range(k)]
        out = f"{name}_n{gate_count}"
        pins = dict(zip(cell_obj.inputs, chosen))
        pins[cell_obj.outputs[0]] = out
        if len(cell_obj.outputs) > 1:
            for extra in cell_obj.outputs[1:]:
                pins[extra] = f"{out}_{extra}"
        nl.add(f"g{gate_count}", cell, **pins)
        nets.append(out)
        produced.append(out)
        gate_count += 1
    for i in range(n_flops):
        d = produced[rng.integers(0, len(produced))] if produced else nets[0]
        nl.add(f"ff{i}", "DFF_X1", d=d, clk=nl.clock, q=f"ff{i}_q")
        gate_count += 1
    for i in range(n_outputs):
        src = produced[rng.integers(0, len(produced))] if produced else nets[0]
        nl.add_output(src)
    return nl


def _ripple_adder(nl: GateNetlist, a, b, prefix: str, cin: str | None = None):
    """Structural ripple-carry adder; returns (sum_bits, carry_out)."""
    n = len(a)
    sums = []
    carry = cin
    for i in range(n):
        if carry is None:
            s = nl.add(f"{prefix}_ha{i}", "HA_X1", a=a[i], b=b[i],
                       s=f"{prefix}_s{i}", co=f"{prefix}_c{i}")
            sums.append(f"{prefix}_s{i}")
            carry = f"{prefix}_c{i}"
        else:
            nl.add(f"{prefix}_fa{i}", "FA_X1", a=a[i], b=b[i], ci=carry,
                   s=f"{prefix}_s{i}", co=f"{prefix}_c{i}")
            sums.append(f"{prefix}_s{i}")
            carry = f"{prefix}_c{i}"
    return sums, carry


def _mac_core(name: str, width: int) -> GateNetlist:
    """width x width array multiplier + 2*width accumulator + register."""
    nl = GateNetlist(name)
    a = [nl.add_input(f"a{i}") for i in range(width)]
    b = [nl.add_input(f"b{i}") for i in range(width)]
    # Partial products.
    pp = [[None] * width for _ in range(width)]
    for i in range(width):
        for j in range(width):
            pp[i][j] = nl.add(f"pp_{i}_{j}", "AND2_X1", a=a[i], b=b[j],
                              y=f"pp{i}_{j}")
    # Row-by-row carry-save reduction into a 2*width product.
    acc = list(pp[0]) + [None] * width
    for i in range(1, width):
        row = [None] * (2 * width)
        for j in range(width):
            row[i + j] = pp[i][j]
        new_acc = [None] * (2 * width)
        carry = None
        for k in range(2 * width):
            x, y = acc[k], row[k]
            if x is None and y is None and carry is None:
                continue
            operands = [v for v in (x, y, carry) if v is not None]
            carry = None
            if len(operands) == 1:
                new_acc[k] = operands[0]
            elif len(operands) == 2:
                nl.add(f"r{i}_ha{k}", "HA_X1", a=operands[0], b=operands[1],
                       s=f"r{i}_s{k}", co=f"r{i}_c{k}")
                new_acc[k] = f"r{i}_s{k}"
                carry = f"r{i}_c{k}"
            else:
                nl.add(f"r{i}_fa{k}", "FA_X1", a=operands[0], b=operands[1],
                       ci=operands[2], s=f"r{i}_s{k}", co=f"r{i}_c{k}")
                new_acc[k] = f"r{i}_s{k}"
                carry = f"r{i}_c{k}"
        acc = new_acc
    product = [p for p in acc if p is not None]
    # Accumulator: product + register -> register.
    reg = [f"acc{i}_q" for i in range(len(product))]
    sums, _ = _ripple_adder(nl, product, reg, "accadd")
    for i, s in enumerate(sums):
        nl.add(f"acc{i}", "DFF_X1", d=s, clk=nl.clock, q=reg[i])
        nl.add_output(reg[i])
    return nl


def _riscv_core(name: str, regfile_words: int, width: int,
                decode_gates: int, seed: int) -> GateNetlist:
    """Synthetic RISC-V-class core: regfile + ALU + decode cloud."""
    rng = make_rng(seed)
    nl = GateNetlist(name)
    instr = [nl.add_input(f"instr{i}") for i in range(32)]
    # Register file: words x width DFF with mux-tree read port.
    reg_q = []
    for w in range(regfile_words):
        bits = []
        for i in range(width):
            q = f"rf{w}_{i}_q"
            # Write data comes from the ALU result (defined later via
            # feedback nets named now).
            nl.add(f"rf{w}_{i}", "DFF_X1", d=f"alu_out{i}", clk=nl.clock,
                   q=q)
            bits.append(q)
        reg_q.append(bits)
    # Read port: binary mux tree per bit selecting among words.
    sel_bits = max(int(np.ceil(np.log2(max(regfile_words, 2)))), 1)
    sels = [instr[i % len(instr)] for i in range(sel_bits)]
    port = []
    for i in range(width):
        level = [reg_q[w][i] for w in range(regfile_words)]
        depth = 0
        while len(level) > 1:
            nxt = []
            for k in range(0, len(level) - 1, 2):
                out = nl.add(f"rdmux{i}_{depth}_{k}", "MUX2_X1",
                             a=level[k], b=level[k + 1],
                             s=sels[depth % sel_bits],
                             y=f"rd{i}_{depth}_{k}")
                nxt.append(out)
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
            depth += 1
        port.append(level[0])
    # ALU: adder (port + instr-derived operand) and logic unit, muxed.
    opb = [instr[i % 32] for i in range(width)]
    sums, _ = _ripple_adder(nl, port, opb, "alu_add")
    alu_out = []
    for i in range(width):
        x = nl.add(f"alu_xor{i}", "XOR2_X1", a=port[i], b=opb[i],
                   y=f"alu_x{i}")
        o = nl.add(f"alu_and{i}", "AND2_X1", a=port[i], b=opb[i],
                   y=f"alu_a{i}")
        m1 = nl.add(f"alu_m1_{i}", "MUX2_X1", a=x, b=o, s=instr[0],
                    y=f"alu_m1n{i}")
        nl.add(f"alu_m2_{i}", "MUX2_X1", a=sums[i], b=m1, s=instr[1],
               y=f"alu_out{i}")
        alu_out.append(f"alu_out{i}")
        nl.add_output(f"alu_out{i}")
    # Decoder / control random logic cloud.
    nets = list(instr) + alu_out
    for g in range(decode_gates):
        cell = str(rng.choice(_GATE_POOL))
        from ..cells import get_cell
        cell_obj = get_cell(cell)
        # Decode cloud feeds forward only (no loops): sample from instr
        # and earlier decode nets.
        pool = nets[-40:]
        pins = {p: str(pool[rng.integers(0, len(pool))])
                for p in cell_obj.inputs}
        out = f"dec{g}"
        pins[cell_obj.outputs[0]] = out
        for extra in cell_obj.outputs[1:]:
            pins[extra] = f"{out}_{extra}"
        nl.add(f"decg{g}", cell, **pins)
        nets.append(out)
    return nl


def _stable_seed(name: str) -> int:
    """Process-stable seed from a benchmark name.

    Python's builtin ``hash`` of a string is randomized per process
    (PYTHONHASHSEED), which silently generated a *different* netlist for
    the same benchmark in every interpreter — breaking cross-process
    reproducibility and the engine's content-addressed result cache.
    """
    import zlib
    return zlib.crc32(name.encode("utf-8")) % (2 ** 31)


#: name -> builder callable
BENCHMARKS = {
    **{name: (lambda n=name: _random_sequential(
        n, _ISCAS[n][0], _ISCAS[n][1], n_inputs=8, n_outputs=6,
        seed=_stable_seed(n))) for name in _ISCAS},
    "mac16": lambda: _mac_core("mac16", 16),
    "mac32": lambda: _mac_core("mac32", 32),
    "picorv32": lambda: _riscv_core("picorv32", regfile_words=16, width=32,
                                    decode_gates=700, seed=101),
    "darkriscv": lambda: _riscv_core("darkriscv", regfile_words=32,
                                     width=32, decode_gates=1800, seed=202),
}


def benchmark_names() -> list:
    """Table I order."""
    return ["s298", "s386", "s526", "s820", "s1196", "s1488",
            "mac16", "mac32", "picorv32", "darkriscv"]


#: name -> the one built netlist of that design in this process.
_BUILT: dict = {}


def build_benchmark(name: str) -> GateNetlist:
    """One of the ten Table I designs, built once per process.

    Every call for ``name`` returns the same netlist object, so its
    fingerprint (memoized per object) is computed once too. The netlist
    is shared and read-only: call ``.copy()`` to edit it, as
    :func:`repro.eda.flow.implement` does.
    """
    netlist = _BUILT.get(name)
    if netlist is None:
        try:
            builder = BENCHMARKS[name]
        except KeyError:
            raise ValueError(f"unknown benchmark {name!r}; "
                             f"available: {benchmark_names()}") from None
        # Concurrent first calls may both build; all settle on one.
        netlist = _BUILT.setdefault(name, builder())
    return netlist
