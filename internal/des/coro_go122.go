//go:build !go1.23

package des

// Processes are iter.Pull coroutines (proc.go), so this package needs a
// Go 1.23 or newer toolchain. The go directives stay at 1.22; proc.go's
// go1.23 build constraint upgrades that one file. An older toolchain
// stops here with the requirement named, ahead of "undefined: Proc".
type _ des_needs_a_Go_1_23_toolchain_for_iter_Pull
