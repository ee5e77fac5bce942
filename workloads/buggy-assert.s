# buggy-assert — detection-campaign workload: the user property syscalls.
#
# Computes a "clamped" sum of two tainted bytes and states two properties
# through the runtime's property stubs (runtime.s):
#
#   assert_true(sum <= 400, 1) — the clamp only bounds the *first* byte
#                                (a < 200), so sum reaches 199 + 255 = 454
#                                and the assertion is violatable;
#   reach(7)                   — an error handler for the "impossible"
#                                internal value sum == 444, which is in
#                                fact reachable (a' = 199, b = 245).
#
# The assert condition deliberately stays symbolic through the syscall
# (kSysAssert never concretizes a0), so the solver finds the violating
# input even though every explored seed passes the assert concretely.
# Both detections happen inside the stubs, i.e. at call depth 2.
#
# Known bug set (pinned by tests/test_oracles.cpp):
#   { assert-fail @ the stub ecall, depth 2; reach @ the stub ecall, depth 2 }.
# Paths: 4 (clamp arm x handler arm; all four combinations are feasible —
# the handler's sum == 444 is reachable on both clamp arms, e.g. a' = 199,
# b = 245).

        .text
        .global main
main:
        addi    sp, sp, -16
        sw      ra, 12(sp)

        la      a0, buf
        li      a1, 2
        call    sym_input
        la      t0, buf
        lbu     t1, 0(t0)              # a
        lbu     t2, 1(t0)              # b

        li      t3, 200
        bltu    t1, t3, small          # BUG: clamp checks a, forgets b
        li      t1, 199
small:
        add     t4, t1, t2             # sum = a' + b  (<= 454, not <= 400)

        # "Unreachable" diagnostics handler for an impossible sum.
        li      t5, 444
        bne     t4, t5, no_handler
        li      a0, 7
        call    reach
no_handler:

        # Property: the clamped sum fits the 400-entry table.
        li      t5, 400
        sltu    t6, t5, t4             # t6 = sum > 400
        xori    t6, t6, 1              # t6 = sum <= 400
        mv      a0, t6
        li      a1, 1
        call    assert_true

        li      a0, 0
        lw      ra, 12(sp)
        addi    sp, sp, 16
        ret

        .data
buf:    .space  2
