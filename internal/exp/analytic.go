package exp

import (
	"fmt"

	"crowdram/crow"
	"crowdram/internal/circuit"
	"crowdram/internal/retention"
)

// Table1 regenerates Table 1 (timing parameters for the new DRAM commands)
// from the analytical circuit model.
func Table1() Table {
	tb := circuit.Default().Table1()
	return Table{
		Title:  "Table 1: timing parameters for new DRAM commands (model / paper)",
		Header: []string{"command", "tRCD", "tRAS full", "tRAS early", "tWR full", "tWR early"},
		Rows: [][]string{
			{"ACT-t (fully restored)", pct(tb.TwoFullRCD), pct(tb.TwoFullRASFull), pct(tb.TwoFullRASEarly), pct(tb.TwoFullWRFull), pct(tb.TwoFullWREarly)},
			{"  paper", "-38%", "-7%", "-33%", "+14%", "-13%"},
			{"ACT-t (partially restored)", pct(tb.TwoPartialRCD), pct(tb.TwoPartialRASFull), pct(tb.TwoPartialRASEarly), pct(tb.TwoFullWRFull), pct(tb.TwoFullWREarly)},
			{"  paper", "-21%", "-7%", "-25%", "+14%", "-13%"},
			{"ACT-c", pct(tb.CopyRCD), pct(tb.CopyRASFull), pct(tb.CopyRASEarly), pct(tb.CopyWRFull), pct(tb.CopyWREarly)},
			{"  paper", "0%", "+18%", "-7%", "+14%", "-13%"},
		},
	}
}

// Fig5 regenerates Figure 5: latency change versus the number of
// simultaneously-activated rows.
func Fig5() Table {
	pts := circuit.Default().Fig5(9)
	t := Table{
		Title:  "Figure 5: latency change vs simultaneously-activated rows",
		Header: []string{"rows", "tRCD (5a)", "tRAS (5b)", "restore (5b)", "tWR (5b)"},
		Notes:  []string{"paper anchor: 2 rows -> tRCD -38%; tRAS dips for few rows, rises for >= 5"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p.Rows), pct(p.RCDDelta), pct(p.RASDelta), pct(p.RestoreDelta), pct(p.WRDelta),
		})
	}
	return t
}

// Fig6 regenerates Figure 6: the normalized tRCD-versus-tRAS trade-off for
// 2–4 simultaneously-activated rows under early-terminated restoration.
func Fig6() Table {
	m := circuit.Default()
	curves := m.Fig6(4, 8)
	t := Table{
		Title:  "Figure 6: normalized tRCD vs normalized tRAS (early-terminated restore)",
		Header: []string{"rows", "norm tRAS", "norm tRCD (next act)"},
		Notes: []string{fmt.Sprintf("chosen operating point (2 rows): tRAS %.0f%%, tRCD %.0f%% of baseline (paper: 67%%/79%%)",
			100*m.TRAS(2, m.Vfull, m.VrOp, false)/circuit.BaseRAS,
			100*m.TRCD(2, m.VrOp, true)/circuit.BaseRCD)},
	}
	for _, c := range curves {
		for _, p := range c.Points {
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(c.Rows),
				dec3(p.RAS / circuit.BaseRAS),
				dec3(p.RCD / circuit.BaseRCD),
			})
		}
	}
	return t
}

// Fig7 regenerates Figure 7: MRA activation power and copy-row decoder area
// versus the number of rows.
func Fig7() Table {
	t := Table{
		Title:  "Figure 7: power and area overhead of MRA",
		Header: []string{"rows", "act power overhead", "decoder area overhead", "chip area overhead"},
		Notes:  []string{"paper anchors: 2 rows -> +5.8% power; 8 copy rows -> +4.8% decoder, +0.48% chip"},
	}
	for n := 1; n <= 9; n++ {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			pct(circuit.MRAPowerFactor(n) - 1),
			pct(circuit.DecoderOverhead(n)),
			pct(circuit.ChipOverhead(n)),
		})
	}
	return t
}

// WeakProb regenerates the Section 4.2.1 weak-row probability analysis
// (Equations 1 and 2).
func WeakProb() Table {
	pRow, pAny := crow.WeakRowProbabilities(retention.DefaultBER, 8)
	t := Table{
		Title:  "Section 4.2.1: weak-row probabilities (BER 4e-9, 8 KiB rows)",
		Header: []string{"copy rows n", "P(any subarray > n weak rows)", "paper"},
		Notes:  []string{fmt.Sprintf("P(row weak) = %.3g (Equation 1)", pRow)},
	}
	paper := map[int]string{1: "0.99", 2: "3.1e-1", 4: "3.3e-4", 8: "3.3e-11"}
	for n := 1; n <= 8; n++ {
		ref := paper[n]
		if ref == "" {
			ref = "-"
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), fmt.Sprintf("%.3g", pAny[n-1]), ref})
	}
	return t
}

// Overhead regenerates the Section 6 hardware-overhead numbers.
func Overhead() Table {
	t := Table{
		Title:  "Section 6: CROW hardware overhead",
		Header: []string{"copy rows", "CROW-table KB/chan", "table access ns", "decoder um^2", "decoder ovh", "chip ovh", "capacity ovh"},
		Notes:  []string{"paper (CROW-8): 11.3 KB, 0.14 ns, 9.6 um^2, 4.8%, 0.48%, 1.6%"},
	}
	for _, n := range []int{1, 2, 4, 8, 16} {
		o := crow.OverheadsFor(n)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			dec2(o.CROWTableKB),
			dec3(o.CROWTableAccessNs),
			dec1(o.DecoderArea),
			pct2(o.DecoderOverhead),
			pct2(o.ChipArea),
			pct2(o.Capacity),
		})
	}
	return t
}
