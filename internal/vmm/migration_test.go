package vmm

import (
	"reflect"
	"testing"

	"memdos/internal/pcm"
	"memdos/internal/workload"
)

// collectSamples steps the server n times and returns the given VM's
// completed samples.
func collectSamples(s *Server, id VMID, n int) []pcm.Sample {
	out := make([]pcm.Sample, 0, n)
	for i := 0; i < n; i++ {
		res := s.Step()
		if smp, ok := res.Sample(id); ok {
			out = append(out, smp)
		}
	}
	return out
}

// TestMigrationZeroDowntimeByteIdentical is the migration contract: a VM
// exported from one host and admitted into another at the same lockstep
// tick produces a sample stream byte-identical to a never-migrated run.
// The destination uses a different server seed to prove the VM's state
// (workload instance, RNG stream, counter timeline) travels whole.
func TestMigrationZeroDowntimeByteIdentical(t *testing.T) {
	const half = 500
	spec := workload.MustByAbbrev("KM").Service()

	// Control: one VM on one host for 2*half steps.
	ctrl := MustNewServer(DefaultConfig())
	cvm, err := ctrl.AddApp("vm", spec)
	if err != nil {
		t.Fatal(err)
	}
	want := collectSamples(ctrl, cvm.ID(), 2*half)

	// Migrated: same VM runs half steps on src, migrates to dst (stepped
	// empty in lockstep), runs half more there.
	src := MustNewServer(DefaultConfig())
	svm, err := src.AddApp("vm", spec)
	if err != nil {
		t.Fatal(err)
	}
	dstCfg := DefaultConfig()
	dstCfg.Seed = 99
	dst := MustNewServer(dstCfg)
	got := collectSamples(src, svm.ID(), half)
	for i := 0; i < half; i++ {
		dst.Step()
	}
	st, err := src.ExportVM(svm.ID())
	if err != nil {
		t.Fatal(err)
	}
	if st.Name() != "vm" || st.IsAttacker() {
		t.Fatalf("exported state = (%q, attacker=%v), want (vm, false)", st.Name(), st.IsAttacker())
	}
	dvm, err := dst.AdmitVM(st)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, collectSamples(dst, dvm.ID(), half)...)

	if len(want) != 2*half || !reflect.DeepEqual(want, got) {
		t.Fatalf("migrated sample stream differs from never-migrated control (%d vs %d samples)", len(got), len(want))
	}
}

// TestMigrationHuskAndStateReuse pins the bookkeeping around export: the
// source slot becomes an inert departed husk, double export/admit fail,
// and the source keeps stepping cleanly.
func TestMigrationHuskAndStateReuse(t *testing.T) {
	src := MustNewServer(DefaultConfig())
	vm, err := src.AddApp("vm", workload.MustByAbbrev("KM").Service())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.AddApp("other", workload.Utility()); err != nil {
		t.Fatal(err)
	}
	collectSamples(src, vm.ID(), 10)
	st, err := src.ExportVM(vm.ID())
	if err != nil {
		t.Fatal(err)
	}
	if !vm.Departed() {
		t.Error("exported VM not marked departed")
	}
	if src.Counter(vm.ID()) != nil {
		t.Error("husk still owns a counter")
	}
	if _, err := src.ExportVM(vm.ID()); err == nil {
		t.Error("double export succeeded")
	}
	res := src.Step()
	if _, ok := res.Sample(vm.ID()); ok {
		t.Error("departed husk produced a sample")
	}
	if vm.LastSpeed() != 0 {
		t.Errorf("departed husk has speed %v, want 0", vm.LastSpeed())
	}

	dst := MustNewServer(DefaultConfig())
	for dst.Now() < src.Now() {
		dst.Step()
	}
	if _, err := dst.AdmitVM(st); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.AdmitVM(st); err == nil {
		t.Error("double admit succeeded")
	}

	badCfg := DefaultConfig()
	badCfg.TPCM = 0.02
	bad := MustNewServer(badCfg)
	st2, err := src.ExportVM(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.AdmitVM(st2); err == nil {
		t.Error("TPCM-mismatched admit succeeded")
	}
}

// TestMigrationDowntimeSkipsTimeline verifies transit downtime: a VM
// admitted d ticks after export resumes its sample timeline at the
// destination's wall clock, with no samples for the transit interval.
func TestMigrationDowntimeSkipsTimeline(t *testing.T) {
	const before, transit, after = 100, 25, 50
	cfg := DefaultConfig()
	src := MustNewServer(cfg)
	vm, err := src.AddApp("vm", workload.MustByAbbrev("KM").Service())
	if err != nil {
		t.Fatal(err)
	}
	collectSamples(src, vm.ID(), before)
	st, err := src.ExportVM(vm.ID())
	if err != nil {
		t.Fatal(err)
	}
	dst := MustNewServer(cfg)
	for i := 0; i < before+transit; i++ {
		dst.Step()
	}
	dvm, err := dst.AdmitVM(st)
	if err != nil {
		t.Fatal(err)
	}
	got := collectSamples(dst, dvm.ID(), after)
	if len(got) != after {
		t.Fatalf("got %d post-transit samples, want %d", len(got), after)
	}
	wantFirst := float64(before+transit+1) * cfg.TPCM
	if diff := got[0].Time - wantFirst; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("first post-transit sample at t=%v, want %v", got[0].Time, wantFirst)
	}
}

// TestMigrationAdmitBehindClockRejected: a destination whose clock is
// behind the export tick cannot admit (lockstep violation).
func TestMigrationAdmitBehindClockRejected(t *testing.T) {
	src := MustNewServer(DefaultConfig())
	vm, err := src.AddApp("vm", workload.MustByAbbrev("KM").Service())
	if err != nil {
		t.Fatal(err)
	}
	collectSamples(src, vm.ID(), 10)
	st, err := src.ExportVM(vm.ID())
	if err != nil {
		t.Fatal(err)
	}
	dst := MustNewServer(DefaultConfig())
	if _, err := dst.AdmitVM(st); err == nil {
		t.Error("admit on a destination behind the export tick succeeded")
	}
}
