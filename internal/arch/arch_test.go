package arch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPageAlign(t *testing.T) {
	tests := []struct {
		name       string
		in         uint64
		wantDown   uint64
		wantUp     uint64
		wantNumber uint64
		wantOffset uint64
	}{
		{"zero", 0, 0, 0, 0, 0},
		{"one", 1, 0, PageSize, 0, 1},
		{"page boundary", PageSize, PageSize, PageSize, 1, 0},
		{"mid page", PageSize + 123, PageSize, 2 * PageSize, 1, 123},
		{"last byte", 2*PageSize - 1, PageSize, 2 * PageSize, 1, PageSize - 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := PageAlignDown(tt.in); got != tt.wantDown {
				t.Errorf("PageAlignDown(%d) = %d, want %d", tt.in, got, tt.wantDown)
			}
			if got := PageAlignUp(tt.in); got != tt.wantUp {
				t.Errorf("PageAlignUp(%d) = %d, want %d", tt.in, got, tt.wantUp)
			}
			if got := PageNumber(tt.in); got != tt.wantNumber {
				t.Errorf("PageNumber(%d) = %d, want %d", tt.in, got, tt.wantNumber)
			}
			if got := PageOffset(tt.in); got != tt.wantOffset {
				t.Errorf("PageOffset(%d) = %d, want %d", tt.in, got, tt.wantOffset)
			}
		})
	}
}

// Property: alignment identities hold for all addresses that cannot overflow.
func TestPropertyPageAlignIdentities(t *testing.T) {
	f := func(a uint64) bool {
		a %= 1 << 52 // keep PageAlignUp from overflowing
		down, up := PageAlignDown(a), PageAlignUp(a)
		if down > a || up < a {
			return false
		}
		if down%PageSize != 0 || up%PageSize != 0 {
			return false
		}
		if a-down >= PageSize || up-a >= PageSize {
			return false
		}
		return PageNumber(a)*PageSize+PageOffset(a) == a
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestPDIndex(t *testing.T) {
	tests := []struct {
		v      GVA
		want   int
		wantOK bool
	}{
		{0, 0, true},
		{UserBase, 1, true},
		{KernelBase, PDEntries / 2, true},
		{AddressSpaceTop - 1, PDEntries - 1, true},
		{AddressSpaceTop, PDEntries, false},
	}
	for _, tt := range tests {
		got, ok := PDIndex(tt.v)
		if got != tt.want || ok != tt.wantOK {
			t.Errorf("PDIndex(%#x) = %d,%v want %d,%v", uint64(tt.v), got, ok, tt.want, tt.wantOK)
		}
	}
}

func TestIsKernelAddress(t *testing.T) {
	if IsKernelAddress(UserBase) {
		t.Error("UserBase classified as kernel")
	}
	if !IsKernelAddress(KernelBase) {
		t.Error("KernelBase not classified as kernel")
	}
	if IsKernelAddress(AddressSpaceTop) {
		t.Error("AddressSpaceTop classified as kernel")
	}
}

func TestRegisterFileGPRRoundTrip(t *testing.T) {
	var f RegisterFile
	regs := []GPR{RAX, RBX, RCX, RDX, RSI, RDI, RBP}
	for i, r := range regs {
		f.SetGPR(r, uint64(i)*1000+7)
	}
	for i, r := range regs {
		if got := f.GPR(r); got != uint64(i)*1000+7 {
			t.Errorf("GPR(%v) = %d, want %d", r, got, uint64(i)*1000+7)
		}
	}
}

func TestRegisterFileCloneIsDeep(t *testing.T) {
	var f RegisterFile
	f.CR3 = 0x1000
	f.SetGPR(RAX, 42)
	c := f.Clone()
	f.SetGPR(RAX, 99)
	f.CR3 = 0x2000
	if c.GPR(RAX) != 42 || c.CR3 != 0x1000 {
		t.Fatalf("clone mutated with original: RAX=%d CR3=%#x", c.GPR(RAX), c.CR3)
	}
}

func TestStringers(t *testing.T) {
	if RingKernel.String() != "ring0" || RingUser.String() != "ring3" {
		t.Error("Ring.String mismatch")
	}
	if Ring(2).String() != "ring2" {
		t.Error("unknown ring String mismatch")
	}
	if RAX.String() != "RAX" {
		t.Error("GPR.String mismatch")
	}
	if GPR(99).String() == "" {
		t.Error("unknown GPR String empty")
	}
	if MSRSysenterEIP.String() != "IA32_SYSENTER_EIP" {
		t.Error("MSR.String mismatch")
	}
	if MSR(0x1).String() == "" {
		t.Error("unknown MSR String empty")
	}
}

func TestLayoutConstants(t *testing.T) {
	if KernelBase <= UserBase {
		t.Error("kernel base must be above user base")
	}
	if PDBytes%PageSize != 0 {
		t.Errorf("page directory size %d not page aligned", PDBytes)
	}
	if TSSOffRSP0+8 > TSSSize {
		t.Error("RSP0 field exceeds TSS size")
	}
}
