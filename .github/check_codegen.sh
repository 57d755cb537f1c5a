#!/usr/bin/env bash
# Codegen rules of the three seed-lane kernels on the default x86-64
# target (the notes are in crates/local/src/simd.rs):
#  * the lane draw, `<StepStream<B> as TapeBlock>::below_lanes`, is scalar
#    `imul` with no `pmuludq` (an SLP-vectorized chain emulates every
#    64-bit product and runs about twice as slow);
#  * TryRandomColor's `seed_cost_block` compares pick rows with two
#    `pcmpeqd` and one `pmovmskb` (`lane_eq_mask8`) and no `sete`;
#  * the partition's count kernel, `reduce::lane_matches`, counts each
#    entry's 32 lanes with two 16-byte `pcmpeqb` and two `psubb` and no
#    `movd` (the fused-flush shape splits them into 4-byte groups and
#    its walks ran 2.1–3.2× slower).
# Exits 1 if any rule breaks or any of the functions has no symbol.
#
# Usage: .github/check_codegen.sh [binary]   (default target/release/parcolor)
set -euo pipefail
bin=${1:-target/release/parcolor}
dis=$(objdump -d -C --no-show-raw-insn "$bin")

# "<mnemonic> <count>" for every instruction of function `$1`; exits 3
# when the function has no symbol.
mnemonics() {
  awk -v sym="$1" '
    index($0, "<" sym ">:") { inside = 1; found = 1; next }
    inside && /^$/ { inside = 0 }
    inside { split($0, f, "\t"); split(f[2], w, " "); if (w[1] != "") n[w[1]]++ }
    END { if (!found) exit 3; for (m in n) print m, n[m] }
  ' <<<"$dis"
}

# Instructions of function `$1` whose mnemonic matches the regex `$2`.
count() {
  awk -v re="$2" '$1 ~ re { c += $2 } END { print c + 0 }' <<<"$1"
}

status=0
draw_sym='<parcolor_core::framework::StepStream<B> as parcolor_local::tape::TapeBlock>::below_lanes'
scan_sym='<parcolor_core::hknt::procs::TryRandomColor as parcolor_core::framework::NormalProcedure>::seed_cost_block'
count_sym='parcolor_core::reduce::lane_matches'

if draw=$(mnemonics "$draw_sym"); then
  imul=$(count "$draw" '^imul') pmuludq=$(count "$draw" '^pmuludq$')
  echo "lane draw: $imul imul, $pmuludq pmuludq"
  if [ "$pmuludq" -ne 0 ] || [ "$imul" -eq 0 ]; then
    echo "::error::the lane draw must be scalar imul with no pmuludq"
    status=1
  fi
else
  echo "::error::no symbol $draw_sym in $bin"
  status=1
fi

if scan=$(mnemonics "$scan_sym"); then
  pcmpeqd=$(count "$scan" '^pcmpeqd$') pmovmskb=$(count "$scan" '^pmovmskb$')
  sete=$(count "$scan" '^sete$')
  echo "clash scan: $pcmpeqd pcmpeqd, $pmovmskb pmovmskb, $sete sete"
  if [ "$pcmpeqd" -ne 2 ] || [ "$pmovmskb" -ne 1 ] || [ "$sete" -ne 0 ]; then
    echo "::error::the clash scan must compare rows with 2 pcmpeqd and 1 pmovmskb, no sete"
    status=1
  fi
else
  echo "::error::no symbol $scan_sym in $bin"
  status=1
fi

if counts=$(mnemonics "$count_sym"); then
  pcmpeqb=$(count "$counts" '^pcmpeqb$') psubb=$(count "$counts" '^psubb$')
  movd=$(count "$counts" '^movd$')
  echo "count kernel: $pcmpeqb pcmpeqb, $psubb psubb, $movd movd"
  if [ "$pcmpeqb" -ne 2 ] || [ "$psubb" -ne 2 ] || [ "$movd" -ne 0 ]; then
    echo "::error::the count kernel must count an entry with 2 pcmpeqb and 2 psubb, no movd"
    status=1
  fi
else
  echo "::error::no symbol $count_sym in $bin"
  status=1
fi
exit $status
