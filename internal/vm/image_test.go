package vm_test

import (
	"runtime"
	"testing"

	"flowcheck/internal/guest"
	"flowcheck/internal/vm"
)

// A machine of compress shares the program's data image, so creating one
// allocates its page tables and no page.
func TestNewMachineSharesImage(t *testing.T) {
	p := guest.Program("compress")
	vm.NewMachineSize(p, vm.DefaultMemSize) // builds the shared image
	const n = 16
	machines := make([]*vm.Machine, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range machines {
		machines[i] = vm.NewMachineSize(p, vm.DefaultMemSize)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 64<<10 {
		t.Fatalf("NewMachineSize(compress) allocates %d B, want under 64 KiB", per)
	}
	runtime.KeepAlive(machines)
}
