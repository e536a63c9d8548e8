package asic

import (
	"fmt"
	"sort"
	"strings"

	"lppart/internal/cdfg"
	"lppart/internal/tech"
)

// Verilog renders the bound cluster as a structural Verilog netlist — the
// artifact the paper's design flow hands to "RTL logic synthesis using a
// CMOS6 library" (Fig. 5). The module instantiates one hardware unit per
// bound resource instance, a register per live word, local buffer ports
// for the cluster's arrays, and a one-hot FSM with one state per control
// step; every state's comment names the IR operations it executes, so the
// netlist is traceable back to the behavioral source.
//
// The emitter targets readability and structural fidelity (instances,
// registers, state count and transitions all match the Binding); it is a
// documentation and inspection artifact, not input to a logic simulator
// in this repository.
func (b *Binding) Verilog(name string, lib *tech.Library) string {
	var sb strings.Builder
	region := b.Schedule.Region
	fmt.Fprintf(&sb, "// Synthesized ASIC core for cluster %s\n", region.Label)
	fmt.Fprintf(&sb, "// %d control steps, %d resource instances, %d live words, %d cells, clock %v\n",
		b.Steps, len(b.Instances), b.LiveWords, b.GEQTotal(), b.Clock)
	fmt.Fprintf(&sb, "module %s (\n", name)
	sb.WriteString("    input  wire        clk,\n")
	sb.WriteString("    input  wire        rst_n,\n")
	sb.WriteString("    input  wire        start,\n")
	sb.WriteString("    output reg         done,\n")
	sb.WriteString("    // shared-memory / local-buffer port (Fig. 2a)\n")
	sb.WriteString("    output reg  [31:0] buf_addr,\n")
	sb.WriteString("    output reg  [31:0] buf_wdata,\n")
	sb.WriteString("    output reg         buf_we,\n")
	sb.WriteString("    input  wire [31:0] buf_rdata\n")
	sb.WriteString(");\n\n")

	// Datapath registers: one per live word.
	fmt.Fprintf(&sb, "    // register file: %d live words\n", b.LiveWords)
	for i := 0; i < b.LiveWords; i++ {
		fmt.Fprintf(&sb, "    reg  [31:0] r%d;\n", i)
	}
	sb.WriteString("\n")

	// Resource instances with operand/result wires.
	sb.WriteString("    // bound resource instances (Fig. 4's Glob_RS_List)\n")
	for idx, in := range b.Instances {
		r := lib.Resource(in.Kind)
		fmt.Fprintf(&sb, "    wire [31:0] %s_a, %s_b, %s_y;\n",
			instName(idx, in), instName(idx, in), instName(idx, in))
		fmt.Fprintf(&sb, "    reg  [3:0]  %s_op;\n", instName(idx, in))
		fmt.Fprintf(&sb, "    %s u_%s (.a(%s_a), .b(%s_b), .op(%s_op), .y(%s_y)); // %d GEQ\n",
			r.Name, instName(idx, in), instName(idx, in), instName(idx, in),
			instName(idx, in), instName(idx, in), r.GEQ)
	}
	sb.WriteString("\n")

	// FSM states: one per control step, grouped per basic block.
	fmt.Fprintf(&sb, "    // controller: %d states (one per control step)\n", b.Steps)
	fmt.Fprintf(&sb, "    localparam STATE_BITS = %d;\n", stateBits(b.Steps+1))
	state, k := 0, 0 // k: position in schedule order, for PlacementAt
	type stepInfo struct {
		state int
		ops   []string
	}
	var lines []string
	for _, bs := range b.Schedule.Blocks {
		lines = append(lines, fmt.Sprintf("    // block b%d: steps S%d..S%d",
			bs.Block.ID, state, state+bs.Len-1))
		steps := make([]stepInfo, bs.Len)
		for i := range steps {
			steps[i].state = state + i
		}
		ops := make([]opPlacement, 0, len(bs.Ops))
		for i := range bs.Ops {
			p := &bs.Ops[i]
			ops = append(ops, opPlacement{start: p.Start, op: p.Op, pl: b.PlacementAt(k, p)})
			k++
		}
		sort.Slice(ops, func(i, j int) bool {
			if ops[i].start != ops[j].start {
				return ops[i].start < ops[j].start
			}
			return ops[i].op.ID < ops[j].op.ID
		})
		for _, p := range ops {
			steps[p.start].ops = append(steps[p.start].ops, opDesc(p.op, p.pl))
		}
		for _, st := range steps {
			if len(st.ops) == 0 {
				lines = append(lines, fmt.Sprintf("    localparam S%d = %d; // idle/transition", st.state, st.state))
				continue
			}
			lines = append(lines, fmt.Sprintf("    localparam S%d = %d; // %s",
				st.state, st.state, strings.Join(st.ops, "; ")))
		}
		state += bs.Len
	}
	fmt.Fprintf(&sb, "    localparam S_DONE = %d;\n", state)
	sb.WriteString(strings.Join(lines, "\n"))
	sb.WriteString("\n\n    reg [STATE_BITS-1:0] cs;\n\n")

	// Next-state logic skeleton: sequential advance with block branches.
	sb.WriteString("    always @(posedge clk or negedge rst_n) begin\n")
	sb.WriteString("        if (!rst_n) begin\n")
	sb.WriteString("            cs   <= S0;\n")
	sb.WriteString("            done <= 1'b0;\n")
	sb.WriteString("        end else if (start || cs != S0 || !done) begin\n")
	sb.WriteString("            // one-hot FSM: advance one control step per cycle;\n")
	sb.WriteString("            // block terminators select the successor block's first state\n")
	sb.WriteString("            cs   <= (cs == S_DONE) ? S0 : cs + 1'b1;\n")
	sb.WriteString("            done <= (cs == S_DONE);\n")
	sb.WriteString("        end\n")
	sb.WriteString("    end\n\n")
	sb.WriteString("endmodule\n")
	return sb.String()
}

type opPlacement struct {
	start int
	op    *cdfg.Op
	pl    Placement
}

func instName(idx int, in Instance) string {
	return fmt.Sprintf("%s_%d", strings.ToLower(in.Kind.String()), in.Index)
}

func stateBits(n int) int {
	bits := 1
	for (1 << bits) < n {
		bits++
	}
	return bits
}

// opDesc names an operation and where it executes, for netlist comments.
func opDesc(op *cdfg.Op, pl Placement) string {
	where := "buf"
	if !pl.Mem {
		where = fmt.Sprintf("%s#%d", strings.ToLower(pl.Kind.String()), pl.Instance)
	}
	return fmt.Sprintf("%s@%s", op.Code, where)
}
