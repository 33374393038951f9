package isa

import (
	"cmp"
	"fmt"
	"slices"
)

// Memory is the byte-addressable storage the interpreter and simulator
// execute against.
type Memory interface {
	ReadBytes(addr uint64, p []byte)
	WriteBytes(addr uint64, p []byte)
}

// PutInt writes the n-byte little-endian encoding of v into dst, which must
// hold at least n bytes.
func PutInt(dst []byte, n int, v int64) {
	_ = dst[n-1]
	for i := 0; i < n; i++ {
		dst[i] = byte(uint64(v) >> (8 * uint(i)))
	}
}

// DecodeInt sign-extends an n-byte little-endian encoding. All arithmetic
// in the ISA is on signed 64-bit values; sign extension keeps
// narrow-element arithmetic consistent with wide.
func DecodeInt(p []byte) int64 {
	var v uint64
	for i, b := range p {
		v |= uint64(b) << (8 * uint(i))
	}
	shift := uint(64 - 8*len(p))
	return int64(v<<shift) >> shift
}

// Vec is one vector register value.
type Vec [NumLanes]int64

// Pred is one predicate register value.
type Pred [NumLanes]bool

// AllTrue returns a fully set predicate.
func AllTrue() Pred {
	var p Pred
	for i := range p {
		p[i] = true
	}
	return p
}

// Any reports whether any lane is set.
func (p Pred) Any() bool {
	for _, b := range p {
		if b {
			return true
		}
	}
	return false
}

// Count returns the number of set lanes.
func (p Pred) Count() int {
	n := 0
	for _, b := range p {
		if b {
			n++
		}
	}
	return n
}

// Oldest returns the lowest set lane index, or NumLanes if none.
func (p Pred) Oldest() int {
	for i, b := range p {
		if b {
			return i
		}
	}
	return NumLanes
}

// Counts aggregates dynamic-execution statistics from an interpreter run.
type Counts struct {
	Insts        int64 // dynamic instructions
	PerOp        [numOps]int64
	MemOps       int64 // dynamic memory instructions
	MicroOps     int64 // micro-ops after gather/scatter splitting
	ConflictCmps int64 // element comparisons performed by v_conflict
	Replays      int64 // SRV replay rounds triggered
	ReplayLanes  int64 // total lanes re-executed across replays
	Regions      int64 // SRV region completions
	VectorIters  int64 // region executions including replays
}

// Of returns the dynamic count of one opcode.
func (c *Counts) Of(op Op) int64 { return c.PerOp[op] }

// srvStore is a buffered speculative store record inside an SRV region,
// keyed by (SRV-id, lane). SRV-id is the instruction PC (paper §III-C:
// "memory instructions with the same PC are assigned the same SRV-id").
type srvStore struct {
	pc     int
	lane   int
	addr   uint64
	size   int
	data   [8]byte // little-endian value; elements are at most 8 bytes
	active bool
}

// srvLoad records the bytes most recently read by (SRV-id, lane).
type srvLoad struct {
	pc     int
	lane   int
	addr   uint64
	size   int
	active bool
}

// seqBefore reports whether access (laneA, pcA) is sequentially older than
// (laneB, pcB). Sequential order within a region is iteration-major: lane
// first (lane k is loop iteration k), program position second.
func seqBefore(laneA, pcA, laneB, pcB int) bool {
	if laneA != laneB {
		return laneA < laneB
	}
	return pcA < pcB
}

// Interp is a sequential functional interpreter. Outside SRV regions it
// executes instructions in program order with immediate memory effects.
// Inside a region it emulates the SRV mechanism functionally: speculative
// stores are buffered, loads forward from sequentially older lanes only,
// horizontal RAW violations mark lanes for replay, and srv_end replays
// violating lanes until the SRV-needs-replay set is empty (paper §III).
type Interp struct {
	Prog *Program
	Mem  Memory

	S  [NumSclRegs]int64
	Vr [NumVecRegs]Vec
	Pr [NumPredReg]Pred

	PC     int
	Halted bool
	Counts Counts

	// SRV region state. The store and load records live in reusable
	// slices in allocation order; slot[pc*NumLanes+lane] holds 1 + the
	// record's index in the slice its PC's kind selects (0: no record yet).
	// srv_start clears only the slots the previous region used, so a
	// steady-state region allocates nothing.
	inRegion    bool
	regionDir   Direction
	regionStart int // PC of instruction after srv_start
	replay      Pred
	needsReplay Pred
	stores      []srvStore
	loads       []srvLoad
	slot        []int32
	scratch     [8]byte // memory-access buffer: keeps reads and writes off the heap
}

// NewInterp returns an interpreter for prog against mem.
func NewInterp(prog *Program, mem Memory) *Interp {
	return &Interp{Prog: prog, Mem: mem}
}

// Run executes until Halt or maxSteps instructions. It returns an error if
// the step budget is exhausted or execution leaves the program.
func (ip *Interp) Run(maxSteps int64) error {
	for !ip.Halted {
		if ip.Counts.Insts >= maxSteps {
			return fmt.Errorf("isa: step budget %d exhausted at pc %d", maxSteps, ip.PC)
		}
		if err := ip.Step(); err != nil {
			return err
		}
	}
	return nil
}

// activeLanes combines the instruction's governing predicate with the
// SRV-replay register when inside a region (paper §III: execution on each
// lane is guarded by the SRV-replay register).
func (ip *Interp) activeLanes(in *Inst) Pred {
	var act Pred
	for i := 0; i < NumLanes; i++ {
		act[i] = true
	}
	if in.Pg != NoPred {
		act = ip.Pr[in.Pg]
	}
	if ip.inRegion && in.IsVector() {
		for i := 0; i < NumLanes; i++ {
			act[i] = act[i] && ip.replay[i]
		}
	}
	return act
}

// Step executes one instruction.
func (ip *Interp) Step() error {
	if ip.PC < 0 || ip.PC >= ip.Prog.Len() {
		return fmt.Errorf("isa: pc %d outside program", ip.PC)
	}
	in := ip.Prog.At(ip.PC)
	ip.Counts.Insts++
	ip.Counts.PerOp[in.Op]++
	if in.IsMem() {
		ip.Counts.MemOps++
	}
	if in.IsGatherScatter() {
		ip.Counts.MicroOps += NumLanes
	} else {
		ip.Counts.MicroOps++
	}
	next := ip.PC + 1
	act := ip.activeLanes(in)

	switch in.Op {
	case OpNop:
	case OpHalt:
		ip.Halted = true
	case OpMovI:
		ip.S[in.Rd] = in.Imm
	case OpMov:
		ip.S[in.Rd] = ip.S[in.Rs1]
	case OpAdd:
		ip.S[in.Rd] = ip.S[in.Rs1] + ip.S[in.Rs2]
	case OpAddI:
		ip.S[in.Rd] = ip.S[in.Rs1] + in.Imm
	case OpSub:
		ip.S[in.Rd] = ip.S[in.Rs1] - ip.S[in.Rs2]
	case OpMul:
		ip.S[in.Rd] = ip.S[in.Rs1] * ip.S[in.Rs2]
	case OpAnd:
		ip.S[in.Rd] = ip.S[in.Rs1] & ip.S[in.Rs2]
	case OpOr:
		ip.S[in.Rd] = ip.S[in.Rs1] | ip.S[in.Rs2]
	case OpXor:
		ip.S[in.Rd] = ip.S[in.Rs1] ^ ip.S[in.Rs2]
	case OpShlI:
		ip.S[in.Rd] = ip.S[in.Rs1] << uint(in.Imm)
	case OpShrI:
		ip.S[in.Rd] = int64(uint64(ip.S[in.Rs1]) >> uint(in.Imm))
	case OpLoad:
		ip.S[in.Rd] = ip.loadScalar(uint64(ip.S[in.Rs1])+uint64(in.Imm), in.Elem, in)
	case OpStore:
		ip.storeScalar(uint64(ip.S[in.Rs1])+uint64(in.Imm), in.Elem, ip.S[in.Rs2], in)
	case OpJmp:
		next = in.Tgt
	case OpBEQ:
		if ip.S[in.Rs1] == ip.S[in.Rs2] {
			next = in.Tgt
		}
	case OpBNE:
		if ip.S[in.Rs1] != ip.S[in.Rs2] {
			next = in.Tgt
		}
	case OpBLT:
		if ip.S[in.Rs1] < ip.S[in.Rs2] {
			next = in.Tgt
		}
	case OpBGE:
		if ip.S[in.Rs1] >= ip.S[in.Rs2] {
			next = in.Tgt
		}

	case OpVMov:
		ip.vmerge(in.Rd, act, func(i int) int64 { return ip.Vr[in.Rs1][i] })
	case OpVAdd:
		ip.vmerge(in.Rd, act, func(i int) int64 { return ip.Vr[in.Rs1][i] + ip.Vr[in.Rs2][i] })
	case OpVSub:
		ip.vmerge(in.Rd, act, func(i int) int64 { return ip.Vr[in.Rs1][i] - ip.Vr[in.Rs2][i] })
	case OpVMul:
		ip.vmerge(in.Rd, act, func(i int) int64 { return ip.Vr[in.Rs1][i] * ip.Vr[in.Rs2][i] })
	case OpVMulAdd:
		ip.vmerge(in.Rd, act, func(i int) int64 {
			return ip.Vr[in.Rs1][i]*ip.Vr[in.Rs2][i] + ip.Vr[in.Rd][i]
		})
	case OpVAddI:
		ip.vmerge(in.Rd, act, func(i int) int64 { return ip.Vr[in.Rs1][i] + in.Imm })
	case OpVMulI:
		ip.vmerge(in.Rd, act, func(i int) int64 { return ip.Vr[in.Rs1][i] * in.Imm })
	case OpVAnd:
		ip.vmerge(in.Rd, act, func(i int) int64 { return ip.Vr[in.Rs1][i] & ip.Vr[in.Rs2][i] })
	case OpVXor:
		ip.vmerge(in.Rd, act, func(i int) int64 { return ip.Vr[in.Rs1][i] ^ ip.Vr[in.Rs2][i] })
	case OpVShrI:
		ip.vmerge(in.Rd, act, func(i int) int64 { return int64(uint64(ip.Vr[in.Rs1][i]) >> uint(in.Imm)) })
	case OpVAndI:
		ip.vmerge(in.Rd, act, func(i int) int64 { return ip.Vr[in.Rs1][i] & in.Imm })
	case OpVAddS:
		ip.vmerge(in.Rd, act, func(i int) int64 { return ip.Vr[in.Rs1][i] + ip.S[in.Rs2] })
	case OpVMulS:
		ip.vmerge(in.Rd, act, func(i int) int64 { return ip.Vr[in.Rs1][i] * ip.S[in.Rs2] })
	case OpVSplat:
		ip.vmerge(in.Rd, act, func(i int) int64 { return ip.S[in.Rs1] })
	case OpVIota:
		ip.vmerge(in.Rd, act, func(i int) int64 { return ip.S[in.Rs1] + int64(i) })
	case OpVIotaRev:
		ip.vmerge(in.Rd, act, func(i int) int64 { return ip.S[in.Rs1] + int64(NumLanes-1-i) })
	case OpVSel:
		ip.vmerge(in.Rd, act, func(i int) int64 {
			// VSel uses Pg as the selector and always writes every lane the
			// replay mask allows; here act already folds both in.
			return ip.Vr[in.Rs1][i]
		})
		// Lanes where the governing predicate was false select Vs2.
		for i := 0; i < NumLanes; i++ {
			sel := in.Pg == NoPred || ip.Pr[in.Pg][i]
			if !sel && (!ip.inRegion || ip.replay[i]) {
				ip.Vr[in.Rd][i] = ip.Vr[in.Rs2][i]
			}
		}

	case OpVCmpLT:
		ip.pmerge(in.Rd, act, func(i int) bool { return ip.Vr[in.Rs1][i] < ip.Vr[in.Rs2][i] })
	case OpVCmpGE:
		ip.pmerge(in.Rd, act, func(i int) bool { return ip.Vr[in.Rs1][i] >= ip.Vr[in.Rs2][i] })
	case OpVCmpEQ:
		ip.pmerge(in.Rd, act, func(i int) bool { return ip.Vr[in.Rs1][i] == ip.Vr[in.Rs2][i] })
	case OpVCmpNE:
		ip.pmerge(in.Rd, act, func(i int) bool { return ip.Vr[in.Rs1][i] != ip.Vr[in.Rs2][i] })
	case OpPTrue:
		ip.pmerge(in.Rd, act, func(int) bool { return true })
	case OpPFalse:
		ip.pmerge(in.Rd, act, func(int) bool { return false })
	case OpPAnd:
		ip.pmerge(in.Rd, act, func(i int) bool { return ip.Pr[in.Rs1][i] && ip.Pr[in.Rs2][i] })
	case OpPOr:
		ip.pmerge(in.Rd, act, func(i int) bool { return ip.Pr[in.Rs1][i] || ip.Pr[in.Rs2][i] })
	case OpPNot:
		ip.pmerge(in.Rd, act, func(i int) bool { return !ip.Pr[in.Rs1][i] })

	case OpVConflict:
		// Pd[i] set when Vs1[i] == Vs2[j] for any enabled earlier lane j<i.
		// Each (i, j) pair costs one comparison (paper §VI-D).
		for i := 0; i < NumLanes; i++ {
			if !act[i] {
				continue
			}
			hit := false
			for j := 0; j < i; j++ {
				if !act[j] {
					continue
				}
				ip.Counts.ConflictCmps++
				if ip.Vr[in.Rs1][i] == ip.Vr[in.Rs2][j] {
					hit = true
				}
			}
			ip.Pr[in.Rd][i] = hit
		}

	case OpVLoad:
		base := uint64(ip.S[in.Rs1]) + uint64(in.Imm)
		for i := 0; i < NumLanes; i++ {
			a := base + uint64(ip.contigOff(i)*in.Elem)
			if act[i] {
				ip.Vr[in.Rd][i] = ip.loadVecLane(a, in.Elem, i)
			}
			ip.recordLoadLane(a, in.Elem, i, act[i])
		}
	case OpVBcast:
		a := uint64(ip.S[in.Rs1]) + uint64(in.Imm)
		for i := 0; i < NumLanes; i++ {
			if act[i] {
				ip.Vr[in.Rd][i] = ip.loadVecLane(a, in.Elem, i)
			}
			ip.recordLoadLane(a, in.Elem, i, act[i])
		}
	case OpVGather:
		base := uint64(ip.S[in.Rs1]) + uint64(in.Imm)
		for i := 0; i < NumLanes; i++ {
			a := base + uint64(ip.Vr[in.Rs2][i]*int64(in.Elem))
			if act[i] {
				ip.Vr[in.Rd][i] = ip.loadVecLane(a, in.Elem, i)
			}
			ip.recordLoadLane(a, in.Elem, i, act[i])
		}
	case OpVStore:
		base := uint64(ip.S[in.Rs1]) + uint64(in.Imm)
		for i := 0; i < NumLanes; i++ {
			a := base + uint64(ip.contigOff(i)*in.Elem)
			ip.storeVecLane(a, in.Elem, ip.Vr[in.Rs2][i], i, act[i])
		}
	case OpVScatter:
		base := uint64(ip.S[in.Rs1]) + uint64(in.Imm)
		for i := 0; i < NumLanes; i++ {
			a := base + uint64(ip.Vr[in.Rs2][i]*int64(in.Elem))
			ip.storeVecLane(a, in.Elem, ip.Vr[in.Rs3][i], i, act[i])
		}

	case OpSRVStart:
		if ip.inRegion {
			return fmt.Errorf("isa: nested srv_start at pc %d (regions cannot nest)", ip.PC)
		}
		ip.inRegion = true
		ip.regionDir = in.Dir
		ip.regionStart = ip.PC + 1
		ip.replay = AllTrue()
		ip.needsReplay = Pred{}
		ip.resetRecords()
		ip.Counts.VectorIters++
	case OpSRVEnd:
		if !ip.inRegion {
			return fmt.Errorf("isa: srv_end without srv_start at pc %d", ip.PC)
		}
		if ip.needsReplay.Any() {
			ip.replay = ip.needsReplay
			ip.needsReplay = Pred{}
			ip.Counts.Replays++
			ip.Counts.ReplayLanes += int64(ip.replay.Count())
			ip.Counts.VectorIters++
			next = ip.regionStart
		} else {
			ip.commitRegion()
			ip.inRegion = false
			ip.Counts.Regions++
		}
	default:
		return fmt.Errorf("isa: unimplemented opcode %v at pc %d", in.Op, ip.PC)
	}

	ip.PC = next
	return nil
}

// contigOff maps a lane to its element offset within a contiguous access:
// identity normally, reversed inside a DOWN region (the srv_start attribute
// of paper §III-A — lane number increases as the address decreases).
func (ip *Interp) contigOff(lane int) int {
	if ip.inRegion && ip.regionDir == DirDown {
		return NumLanes - 1 - lane
	}
	return lane
}

func (ip *Interp) vmerge(rd int, act Pred, f func(i int) int64) {
	for i := 0; i < NumLanes; i++ {
		if act[i] {
			ip.Vr[rd][i] = f(i)
		}
	}
}

func (ip *Interp) pmerge(rd int, act Pred, f func(i int) bool) {
	for i := 0; i < NumLanes; i++ {
		if act[i] {
			ip.Pr[rd][i] = f(i)
		}
	}
}

// resetRecords empties the region's store and load records, clearing the
// slots they occupied and keeping the slices' capacity.
func (ip *Interp) resetRecords() {
	if n := ip.Prog.Len() * NumLanes; len(ip.slot) < n {
		ip.slot = make([]int32, n)
	}
	for i := range ip.stores {
		ip.slot[ip.stores[i].pc*NumLanes+ip.stores[i].lane] = 0
	}
	for i := range ip.loads {
		ip.slot[ip.loads[i].pc*NumLanes+ip.loads[i].lane] = 0
	}
	ip.stores = ip.stores[:0]
	ip.loads = ip.loads[:0]
}

// readInt loads n little-endian bytes through the interpreter's scratch
// buffer and sign-extends them.
func (ip *Interp) readInt(addr uint64, n int) int64 {
	buf := ip.scratch[:n]
	ip.Mem.ReadBytes(addr, buf)
	return DecodeInt(buf)
}

// writeInt stores the low n bytes of v through the scratch buffer.
func (ip *Interp) writeInt(addr uint64, n int, v int64) {
	buf := ip.scratch[:n]
	PutInt(buf, n, v)
	ip.Mem.WriteBytes(addr, buf)
}

// loadScalar performs a scalar load; scalar accesses inside an SRV region are
// kept outside by the compiler, so they always hit memory directly.
func (ip *Interp) loadScalar(addr uint64, n int, in *Inst) int64 {
	_ = in
	return ip.readInt(addr, n)
}

func (ip *Interp) storeScalar(addr uint64, n int, v int64, in *Inst) {
	_ = in
	ip.writeInt(addr, n, v)
}

// loadVecLane resolves one lane's loaded value. Inside a region each byte
// comes from the sequentially-youngest older buffered store covering it, or
// from memory (partial store-to-load forwarding, paper §III-B1).
func (ip *Interp) loadVecLane(addr uint64, n, lane int) int64 {
	if !ip.inRegion {
		return ip.readInt(addr, n)
	}
	buf := ip.scratch[:n]
	ip.Mem.ReadBytes(addr, buf)
	loadPC := ip.PC
	// best[b] is the index of the youngest qualifying store covering byte b.
	var best [8]int
	for b := range buf {
		best[b] = -1
	}
	end := addr + uint64(n)
	for i := range ip.stores {
		st := &ip.stores[i]
		if !st.active || st.addr >= end || addr >= st.addr+uint64(st.size) {
			continue
		}
		// Only sequentially older stores may forward (WAR rule: data from
		// later lanes is not forwardable).
		if !seqBefore(st.lane, st.pc, lane, loadPC) {
			continue
		}
		for a := max(addr, st.addr); a < min(end, st.addr+uint64(st.size)); a++ {
			if k := best[a-addr]; k < 0 || seqBefore(ip.stores[k].lane, ip.stores[k].pc, st.lane, st.pc) {
				best[a-addr] = i
			}
		}
	}
	for b := range buf {
		if k := best[b]; k >= 0 {
			st := &ip.stores[k]
			buf[b] = st.data[addr+uint64(b)-st.addr]
		}
	}
	return DecodeInt(buf)
}

// recordLoadLane tracks the bytes a load lane most recently read so that a
// later-issuing store can detect horizontal RAW violations against it.
func (ip *Interp) recordLoadLane(addr uint64, n, lane int, active bool) {
	if !ip.inRegion {
		return
	}
	s := ip.PC*NumLanes + lane
	if ip.slot[s] == 0 {
		// First execution of the region issues every memory instruction so
		// all LSU entries exist, even for predicate-off lanes (paper §III-C).
		ip.loads = append(ip.loads, srvLoad{pc: ip.PC, lane: lane})
		ip.slot[s] = int32(len(ip.loads))
	}
	if !active {
		// An inactive lane leaves its existing entry unchanged.
		return
	}
	rec := &ip.loads[ip.slot[s]-1]
	rec.addr, rec.size, rec.active = addr, n, true
}

// storeVecLane buffers one lane of a vector store and performs horizontal
// RAW detection: any load in a sequentially younger position that already
// read an overlapping byte has consumed stale data, so its lane is marked in
// the SRV-needs-replay register (paper §III-B2).
func (ip *Interp) storeVecLane(addr uint64, n int, v int64, lane int, active bool) {
	if !ip.inRegion {
		if active {
			ip.writeInt(addr, n, v)
		}
		return
	}
	s := ip.PC*NumLanes + lane
	if ip.slot[s] == 0 {
		ip.stores = append(ip.stores, srvStore{pc: ip.PC, lane: lane})
		ip.slot[s] = int32(len(ip.stores))
	}
	if !active {
		// An inactive lane leaves its existing entry unchanged; on the first
		// pass this pre-allocates the entry without marking bytes.
		return
	}
	rec := &ip.stores[ip.slot[s]-1]
	rec.addr, rec.size, rec.active = addr, n, true
	PutInt(rec.data[:n], n, v)
	storePC := ip.PC
	for i := range ip.loads {
		ld := &ip.loads[i]
		if !ld.active {
			continue
		}
		// Only sequentially younger loads can have consumed stale data.
		if !seqBefore(lane, storePC, ld.lane, ld.pc) {
			continue
		}
		// A load at a later program position whose lane is in the current
		// replay mask will (re-)execute after this store in this round and
		// pick up the fresh data through forwarding; its recorded access is
		// from a previous round and must not trigger a replay.
		if ip.replay[ld.lane] && ld.pc > storePC {
			continue
		}
		if addr < ld.addr+uint64(ld.size) && ld.addr < addr+uint64(n) {
			ip.needsReplay[ld.lane] = true
		}
	}
}

// commitRegion writes buffered stores back in sequential order so the
// youngest store to each byte wins (WAW resolution, paper §III-B3). The
// records are sorted in place: the region is over, and resetRecords clears
// slots by each record's own (pc, lane), not by its index.
func (ip *Interp) commitRegion() {
	slices.SortFunc(ip.stores, func(a, b srvStore) int {
		if c := cmp.Compare(a.lane, b.lane); c != 0 {
			return c
		}
		return cmp.Compare(a.pc, b.pc)
	})
	for i := range ip.stores {
		if st := &ip.stores[i]; st.active {
			ip.Mem.WriteBytes(st.addr, st.data[:st.size])
		}
	}
}

// InRegion reports whether execution is currently inside an SRV region.
func (ip *Interp) InRegion() bool { return ip.inRegion }

// NeedsReplay exposes the SRV-needs-replay register for tests.
func (ip *Interp) NeedsReplay() Pred { return ip.needsReplay }

// ReplayMask exposes the SRV-replay register for tests.
func (ip *Interp) ReplayMask() Pred { return ip.replay }
