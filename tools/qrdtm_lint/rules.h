// Rule engine for qrdtm_lint.
//
// Six rule families (see DESIGN.md §5 and §14):
//
//   det   -- determinism: protocol/simulation code must derive every
//            observable from the seeded Rng streams and simulated time,
//            never from the host environment.
//   coro  -- coroutine lifetime: closure captures and temporaries bound to
//            reference parameters die before a suspended coroutine resumes.
//   hot   -- hot-path hygiene: no per-event allocation on the kernel/RPC/
//            txn paths.
//   codec -- wire-codec symmetry (group-level): encode and decode bodies of
//            each wire message must agree in op count, order, field
//            attribution and width, and every message tag must be
//            registered exactly once in a dispatch table.
//   buffer-- pooled-buffer lifecycle (flow-aware, see dataflow.h): no leak,
//            double release, or use-after-release of acquired wire buffers.
//   epoch -- epoch/lease discipline: no raw Message construction outside
//            the transport (bypassing dst_epoch stamping), no protection/
//            lock acquisition without a lease timestamp.
//
// Every diagnostic carries a rule name and is suppressible in source with
// `// qrdtm-lint: allow(<rule>)` on the same or the preceding line.
// Suppressions that fire are recorded in UsedSuppressions so the stale-
// suppression audit (`--stale-suppressions`) can flag allow() directives
// that no longer suppress anything.
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lexer.h"
#include "symbols.h"

namespace qrdtm::lint {

enum Family : unsigned {
  kDet = 1u << 0,
  kCoro = 1u << 1,
  kHot = 1u << 2,
  kCodec = 1u << 3,
  kBuffer = 1u << 4,
  kEpoch = 1u << 5,
};

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// (line, rule) pairs whose suppression directive actually absorbed a
/// diagnostic in this run; keyed per file by the caller.
using UsedSuppressions = std::set<std::pair<int, std::string>>;

/// Pass 2: run the per-file rule families selected by `families` (bitwise-or
/// of Family) over one lexed file, appending unsuppressed diagnostics.
/// When `used` is non-null, suppressed diagnostics record their (line, rule)
/// there instead.
void run_rules(const std::string& file, const LexResult& lexed,
               const SymbolTable& table, unsigned families,
               std::vector<Diagnostic>* out,
               UsedSuppressions* used = nullptr);

/// One file participating in a directory group, for the group-level pass.
struct GroupFile {
  std::string path;
  const LexResult* lexed = nullptr;
  unsigned families = 0;
};

/// Pass 3: group-level rules (codec symmetry, tag registration) over one
/// directory group's symbol table.  A free codec the group calls but does
/// not define (an element codec shared across directories) resolves in
/// `run_codecs`, the free codecs of every directory in the run, when given.
/// Diagnostics anchor to the file the offending struct/codec/tag lives in
/// and respect that file's suppressions (and family selection: a diagnostic
/// is only emitted when its anchor file has the codec family enabled).
void run_group_rules(const std::vector<GroupFile>& files,
                     const SymbolTable& table, std::vector<Diagnostic>* out,
                     std::map<std::string, UsedSuppressions>* used = nullptr,
                     const SymbolTable* run_codecs = nullptr);

/// All rule names, for --list-rules and directive validation.
const std::vector<std::string>& all_rule_names();

/// The Family bit a rule belongs to, or 0 for an unknown rule name.
unsigned family_of_rule(const std::string& rule);

}  // namespace qrdtm::lint
