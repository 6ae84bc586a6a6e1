package inject

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"harpocrates/internal/coverage"
	"harpocrates/internal/gates"
)

// pinnedCampaign is one campaign of TestCampaignOutcomesPinned with the
// FNV-64a digests of its derived specs and of its outcomes.
type pinnedCampaign struct {
	target       coverage.Structure
	typ          FaultType
	burst        int
	specs, stats uint64
}

// pinnedNetlists are the netlists the four units' gates are drawn from,
// named here rather than read from the injector so the test states
// independently what deriveSpec samples.
var pinnedNetlists = map[coverage.Structure]func() *gates.Netlist{
	coverage.IntAdder: gates.IntAdder64Netlist,
	coverage.IntMul:   gates.IntMul64Netlist,
	coverage.FPAdd:    gates.FPAdd64Netlist,
	coverage.FPMul:    gates.FPMul64Netlist,
}

// TestCampaignOutcomesPinned pins, for every (structure, fault type)
// pair Validate accepts on DefaultConfig and for 3-bit and entry-wide
// bursts on the three bit arrays, the fault parameters deriveSpec draws
// and the statistics a campaign reports: N = 32 injections on one fixed
// 400-instruction program, 1000-cycle intermittent windows. The spec
// digest covers every field in index order, so a reordered RNG draw, a
// changed draw range or a different stuck-at value moves it even on the
// microarchitectural sites, whose only other check compares two paths
// that share deriveSpec; the stats digest covers GoldenCycles and the
// outcome vector, so a fault applied to other bits (a changed wrap, a
// wrong interval-log cell, a different hook) moves it. A change to the
// simulator's golden run legitimately moves the stats digests.
func TestCampaignOutcomesPinned(t *testing.T) {
	cases := []pinnedCampaign{
		{coverage.IRF, Transient, 0, 0x5e1a04335452661a, 0x84afa8f4d949a10b},
		{coverage.IRF, Intermittent, 0, 0xe518f508ce3d6fd2, 0xe2b47f0850cd1656},
		{coverage.L1D, Transient, 0, 0x491c599353c2062f, 0x581efd1aee9fe321},
		{coverage.L1D, Intermittent, 0, 0x943fceab1628cbdd, 0x56b0e14b15f4bd3e},
		{coverage.FPRF, Transient, 0, 0x7a8aeaf4eb51dfa1, 0xdf1dec31bf1eb4af},
		{coverage.FPRF, Intermittent, 0, 0xfa37b8c4ebc7fef6, 0xf7d8731e4d69091c},
		{coverage.IntAdder, Permanent, 0, 0xd0cecb78122ec3e7, 0x7bd9d3f691226382},
		{coverage.IntAdder, Intermittent, 0, 0xfa24c3a7a9ff332b, 0x378b66a4bf7f6b74},
		{coverage.IntMul, Permanent, 0, 0x1f68f6314cca2f0c, 0xd0702d2093373486},
		{coverage.IntMul, Intermittent, 0, 0x1a3ba1fd1cd44fc, 0xd0702d2093373486},
		{coverage.FPAdd, Permanent, 0, 0x9781dae71c942a53, 0x581efd1aee9fe321},
		{coverage.FPAdd, Intermittent, 0, 0x8245be7ba784adbf, 0x581efd1aee9fe321},
		{coverage.FPMul, Permanent, 0, 0xa1c0667c9b175ee6, 0xe36cc9ded7182a07},
		{coverage.FPMul, Intermittent, 0, 0xc72bd852c012def2, 0x33dcfb5a703824e9},
		{coverage.Decoder, Transient, 0, 0x5d65104574667ca, 0xe2ecdf0c7d432544},
		{coverage.LSQ, Transient, 0, 0x7683f537895ba11, 0x195b5a7854e6c471},
		{coverage.IRF, Transient, 3, 0x5e1a04335452661a, 0x84afa8f4d949a10b},
		{coverage.IRF, Transient, 64, 0x5e1a04335452661a, 0xe4b4fcec8313e47a},
		{coverage.IRF, Intermittent, 3, 0xe518f508ce3d6fd2, 0xe2b47f0850cd1656},
		{coverage.IRF, Intermittent, 64, 0xe518f508ce3d6fd2, 0x6c706fdb59501654},
		{coverage.L1D, Transient, 3, 0x491c599353c2062f, 0x581efd1aee9fe321},
		{coverage.L1D, Transient, 512, 0x491c599353c2062f, 0xcea2ead0985d97fe},
		{coverage.L1D, Intermittent, 3, 0x943fceab1628cbdd, 0x32e56faf09e11ea3},
		{coverage.L1D, Intermittent, 512, 0x943fceab1628cbdd, 0xcb4a0d57f5460c99},
		{coverage.FPRF, Transient, 3, 0x7a8aeaf4eb51dfa1, 0xdf1dec31bf1eb4af},
		{coverage.FPRF, Transient, 128, 0x7a8aeaf4eb51dfa1, 0xdf1dec31bf1eb4af},
		{coverage.FPRF, Intermittent, 3, 0xfa37b8c4ebc7fef6, 0xf7d8731e4d69091c},
		{coverage.FPRF, Intermittent, 128, 0xfa37b8c4ebc7fef6, 0xbd2788a89f39f8ce},
	}
	for _, pc := range cases {
		name := fmt.Sprintf("%v/%v/burst%d", pc.target, pc.typ, pc.burst)
		c := testProgram(t, 400, nil)
		c.Target, c.Type, c.BurstLen, c.N = pc.target, pc.typ, pc.burst, 32
		c.IntermittentLen = 1000
		st, err := c.Run()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		var nl *gates.Netlist
		if mk := pinnedNetlists[pc.target]; mk != nil {
			nl = mk()
		}
		h := fnv.New64a()
		for i := 0; i < c.N; i++ {
			sp := c.deriveSpec(i, st.GoldenCycles, nl)
			for _, v := range []uint64{uint64(sp.idx), sp.start, sp.end, uint64(sp.reg),
				uint64(sp.bit), uint64(sp.gate), b2u(sp.val)} {
				h.Write(binary.LittleEndian.AppendUint64(nil, v))
			}
		}
		specs := h.Sum64()
		h = fnv.New64a()
		h.Write(binary.LittleEndian.AppendUint64(nil, st.GoldenCycles))
		for _, o := range st.Outcomes {
			h.Write([]byte{byte(o)})
		}
		if got := h.Sum64(); specs != pc.specs || got != pc.stats {
			t.Errorf("%s: specs digest %#x, stats digest %#x (%v); pinned %#x, %#x",
				name, specs, got, st, pc.specs, pc.stats)
		}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
