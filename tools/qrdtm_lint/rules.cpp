#include "rules.h"

#include <array>
#include <cstddef>
#include <string_view>

#include "dataflow.h"
#include "tokwalk.h"

namespace qrdtm::lint {

namespace {

struct Ctx {
  const std::string& file;
  const std::vector<Token>& t;
  const SuppressionMap& sup;
  const SymbolTable& table;
  std::vector<Diagnostic>* out;
  UsedSuppressions* used = nullptr;

  void diag(int line, const char* rule, std::string msg) const {
    if (auto it = sup.find(rule); it != sup.end() && it->second.count(line)) {
      if (used) used->insert({line, rule});
      return;
    }
    out->push_back(Diagnostic{file, line, rule, std::move(msg)});
  }
};

bool path_contains_dir(const std::string& path, const char* dir) {
  std::string needle = std::string("/") + dir + "/";
  std::string hay = "/" + path;
  return hay.find(needle) != std::string::npos;
}

// ---------------------------------------------------------------------------
// Family: det
// ---------------------------------------------------------------------------

constexpr std::string_view kRandStd[] = {
    "random_device", "mt19937",      "mt19937_64",
    "minstd_rand",   "minstd_rand0", "default_random_engine",
    "ranlux24",      "ranlux48",     "knuth_b",
};
constexpr std::string_view kRandCalls[] = {"rand",    "srand",   "rand_r",
                                           "drand48", "lrand48", "mrand48",
                                           "random",  "srandom"};
constexpr std::string_view kClockIdents[] = {"system_clock", "steady_clock",
                                             "high_resolution_clock"};
constexpr std::string_view kClockCalls[] = {"time", "clock", "gettimeofday",
                                            "clock_gettime", "timespec_get",
                                            "ftime"};
constexpr std::string_view kThreadStd[] = {
    "thread",         "jthread",
    "mutex",          "timed_mutex",
    "recursive_mutex", "recursive_timed_mutex",
    "shared_mutex",   "shared_timed_mutex",
    "condition_variable", "condition_variable_any",
    "async",          "barrier",
    "latch",          "counting_semaphore",
    "binary_semaphore", "atomic",
    "atomic_flag",    "atomic_ref",
};

template <class Range>
bool in(std::string_view needle, const Range& range) {
  for (std::string_view s : range) {
    if (s == needle) return true;
  }
  return false;
}

/// True when t[i] looks like a *call* of a global/libc function: the
/// identifier is followed by '(' and is not a member access, a
/// qualified name from a non-std namespace, or a declaration
/// (`Tick time(...)`).
bool is_free_call(const std::vector<Token>& t, std::size_t i) {
  if (i + 1 >= t.size() || !is_punct(t[i + 1], "(")) return false;
  if (i == 0) return true;
  const Token& prev = t[i - 1];
  if (is_punct(prev, ".") || is_punct(prev, "->")) return false;
  if (is_punct(prev, "::")) {
    // std::time( / ::time( count; qrdtm::sim::time( would not.
    return i >= 2 ? is_ident(t[i - 2], "std") : true;
  }
  // `Tick time(...)` (a declaration) or `foo time(...)`: preceded by an
  // identifier or a type-ish token -- not a call.
  if (prev.kind == Tok::kIdent) return false;
  if (is_punct(prev, ">") || is_punct(prev, "*") || is_punct(prev, "&")) {
    return false;
  }
  return true;
}

void check_det(const Ctx& c) {
  const auto& t = c.t;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent) continue;
    std::string_view name = t[i].text;
    const bool std_qualified =
        i >= 2 && is_punct(t[i - 1], "::") && is_ident(t[i - 2], "std");

    if (std_qualified && in(name, kRandStd)) {
      c.diag(t[i].line, "det-rand",
             "std::" + std::string(name) +
                 " is host randomness; use a seeded qrdtm::Rng stream");
      continue;
    }
    if (in(name, kRandCalls) && is_free_call(t, i)) {
      c.diag(t[i].line, "det-rand",
             std::string(name) +
                 "() is host randomness; use a seeded qrdtm::Rng stream");
      continue;
    }
    if (in(name, kClockIdents)) {
      c.diag(t[i].line, "det-wall-clock",
             "std::chrono::" + std::string(name) +
                 " reads the host clock; use sim::Simulator::now()");
      continue;
    }
    if (in(name, kClockCalls) && is_free_call(t, i)) {
      c.diag(t[i].line, "det-wall-clock",
             std::string(name) +
                 "() reads the host clock; use sim::Simulator::now()");
      continue;
    }
    if (std_qualified && in(name, kThreadStd)) {
      c.diag(t[i].line, "det-thread",
             "std::" + std::string(name) +
                 " introduces host scheduling nondeterminism; the kernel is "
                 "single-threaded (parallelise across Simulators)");
      continue;
    }
    if (is_ident(t[i], "thread_local")) {
      c.diag(t[i].line, "det-thread",
             "thread_local state in protocol code hides cross-run variation; "
             "scope state to the Simulator instead");
      continue;
    }

    // Pointer-keyed associative containers: iteration order (ordered) or
    // hash placement (unordered) then depends on allocation addresses.
    static constexpr std::string_view kAssoc[] = {
        "map",           "set",           "multimap",          "multiset",
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    if (in(name, kAssoc) && i + 1 < t.size() && is_punct(t[i + 1], "<")) {
      // Examine the first template argument for a top-level '*'.
      int depth = 0;
      bool ptr = false;
      for (std::size_t k = i + 1; k < t.size(); ++k) {
        if (t[k].kind != Tok::kPunct) continue;
        if (t[k].text == "<") ++depth;
        else if (t[k].text == ">" || t[k].text == ">>") break;
        else if (t[k].text == "," && depth == 1) break;
        else if (t[k].text == "*" && depth == 1) ptr = true;
        else if (t[k].text == ";" || t[k].text == "{") break;
      }
      if (ptr) {
        c.diag(t[i].line, "det-pointer-key",
               "container keyed on a pointer: ordering/placement depends on "
               "allocation addresses, which vary across runs; key on a "
               "stable id instead");
      }
    }

    // Range-for over a std::unordered_* variable (bare identifier or
    // this->identifier only; member-access chains are not resolvable at
    // token level and are left to review).
    if (name == "for" && i + 1 < t.size() && is_punct(t[i + 1], "(")) {
      std::size_t close = skip_balanced(t, i + 1);
      if (close == npos) continue;
      std::size_t colon = npos;
      int depth = 0;
      for (std::size_t k = i + 1; k < close - 1; ++k) {
        if (t[k].kind != Tok::kPunct) continue;
        if (t[k].text == "(" || t[k].text == "[" || t[k].text == "{") ++depth;
        else if (t[k].text == ")" || t[k].text == "]" || t[k].text == "}") --depth;
        else if (t[k].text == ":" && depth == 1) {
          colon = k;
          break;
        }
      }
      if (colon == npos) continue;
      // Sequence expression tokens: (colon, close-1).
      std::size_t b = colon + 1;
      std::size_t e = close - 1;  // index of ')'
      std::string_view seq_name;
      if (e - b == 1 && t[b].kind == Tok::kIdent) {
        seq_name = t[b].text;
      } else if (e - b == 3 && t[b].kind == Tok::kIdent &&
                 (is_punct(t[b + 1], "->") || is_punct(t[b + 1], ".")) &&
                 t[b + 2].kind == Tok::kIdent) {
        // `this->member`, `obj.member_` or `ptr->member_`.  Without types,
        // one-level chains resolve the member name against the group's
        // symbol table; to keep wire-struct field names (no underscore by
        // convention) from aliasing class members, non-this chains only
        // match the trailing-underscore member convention.
        if (is_ident(t[b], "this") || t[b + 2].text.back() == '_') {
          seq_name = t[b + 2].text;
        }
      } else if (e - b == 5 && t[b].kind == Tok::kIdent &&
                 (is_punct(t[b + 1], "->") || is_punct(t[b + 1], ".")) &&
                 t[b + 2].kind == Tok::kIdent && is_punct(t[b + 3], "(") &&
                 is_punct(t[b + 4], ")")) {
        // `obj.accessor()` returning an unordered container (harvested from
        // the accessor's declaration by collect_symbols).
        seq_name = t[b + 2].text;
      }
      if (!seq_name.empty() &&
          c.table.unordered_vars.count(std::string(seq_name))) {
        c.diag(t[i].line, "det-unordered-iter",
               "iterating std::unordered_* container '" +
                   std::string(seq_name) +
                   "': hash iteration order is unspecified and breaks "
                   "deterministic replay; use a sorted view or an order-"
                   "independent reduction");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Family: coro
// ---------------------------------------------------------------------------

struct Lambda {
  std::size_t intro;      // index of '['
  std::size_t body_open;  // index of '{'
  std::size_t body_close; // index just past '}'
  bool ref_capture = false;
  bool default_copy = false;  // [=] -- captures `this` implicitly
  bool has_coro_kw = false;   // co_await / co_return / co_yield in own body
};

bool lambda_intro_at(const std::vector<Token>& t, std::size_t i) {
  if (!is_punct(t[i], "[")) return false;
  // Attribute [[...]]?
  if (i + 1 < t.size() && is_punct(t[i + 1], "[")) return false;
  if (i == 0) return true;
  const Token& prev = t[i - 1];
  // `return [...]` / `co_return [...]` hand a lambda back, not a subscript.
  if (is_ident(prev, "return") || is_ident(prev, "co_return") ||
      is_ident(prev, "co_yield")) {
    return true;
  }
  // Subscript or array declarator when preceded by a value-ish token.
  if (prev.kind == Tok::kIdent || prev.kind == Tok::kNumber ||
      prev.kind == Tok::kString) {
    return false;
  }
  if (is_punct(prev, "]") || is_punct(prev, ")")) return false;
  if (is_punct(prev, "[")) return false;  // second bracket of [[attr]]
  return true;
}

void collect_lambdas(const std::vector<Token>& t, std::vector<Lambda>* out) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!lambda_intro_at(t, i)) continue;
    std::size_t cap_end = skip_balanced(t, i);  // past ']'
    if (cap_end == npos) continue;
    Lambda lam;
    lam.intro = i;
    // Parse the capture list.
    for (std::size_t k = i + 1; k + 1 < cap_end; ++k) {
      if (is_punct(t[k], "&")) {
        // default '&' or '&name' -- both capture by reference.
        lam.ref_capture = true;
      } else if (is_punct(t[k], "=") && is_punct(t[k - 1], "[") &&
                 (is_punct(t[k + 1], ",") || is_punct(t[k + 1], "]"))) {
        lam.default_copy = true;
      }
    }
    // Find the body '{': skip optional template-parameter list, parameter
    // list, and specifiers / trailing return type.
    std::size_t k = cap_end;
    if (k < t.size() && is_punct(t[k], "<")) {
      std::size_t past = skip_angles(t, k);
      if (past != npos) k = past;
    }
    if (k < t.size() && is_punct(t[k], "(")) {
      std::size_t past = skip_balanced(t, k);
      if (past == npos) continue;
      k = past;
    }
    bool found = false;
    for (std::size_t guard = 0; k < t.size() && guard < 64; ++k, ++guard) {
      if (is_punct(t[k], "{")) {
        found = true;
        break;
      }
      if (is_punct(t[k], "(")) {  // noexcept(...) etc.
        std::size_t past = skip_balanced(t, k);
        if (past == npos) break;
        k = past - 1;
        continue;
      }
      if (is_punct(t[k], ";") || is_punct(t[k], "}")) break;
    }
    if (!found) continue;  // not a lambda after all (e.g. a weird subscript)
    lam.body_open = k;
    lam.body_close = skip_balanced(t, k);
    if (lam.body_close == npos) continue;
    out->push_back(lam);
  }
}

void check_coro_captures(const Ctx& c) {
  std::vector<Lambda> lambdas;
  collect_lambdas(c.t, &lambdas);
  // Attribute each coroutine keyword to the innermost enclosing lambda.
  for (std::size_t i = 0; i < c.t.size(); ++i) {
    const Token& tk = c.t[i];
    if (tk.kind != Tok::kIdent) continue;
    if (tk.text != "co_await" && tk.text != "co_return" &&
        tk.text != "co_yield") {
      continue;
    }
    Lambda* innermost = nullptr;
    for (Lambda& lam : lambdas) {
      if (i > lam.body_open && i < lam.body_close &&
          (!innermost ||
           lam.body_close - lam.body_open <
               innermost->body_close - innermost->body_open)) {
        innermost = &lam;
      }
    }
    if (innermost) innermost->has_coro_kw = true;
  }
  for (const Lambda& lam : lambdas) {
    if (!lam.has_coro_kw) continue;
    if (lam.ref_capture) {
      c.diag(c.t[lam.intro].line, "coro-ref-capture",
             "lambda coroutine captures by reference: captures live in the "
             "closure object, not the coroutine frame; if the closure or a "
             "captured local dies while the coroutine is suspended, "
             "resumption reads freed memory");
    } else if (lam.default_copy) {
      c.diag(c.t[lam.intro].line, "coro-ref-capture",
             "lambda coroutine with [=] captures `this` implicitly; name the "
             "captures explicitly (the closure may outlive *this)");
    }
  }
}

void check_coro_temp_ref(const Ctx& c) {
  const auto& t = c.t;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent || !is_punct(t[i + 1], "(")) continue;
    if (!c.table.ref_param_task_fns.count(std::string(t[i].text))) continue;
    // Skip the declaration itself (`sim::Task<void> name(...)`: preceded by
    // '>') and member-qualified declarations (`Task<void> Cls::name(`).
    if (i > 0 && (is_punct(t[i - 1], ">") || is_punct(t[i - 1], ">>"))) {
      continue;
    }
    if (i >= 2 && is_punct(t[i - 1], "::") && i >= 3 &&
        is_punct(t[i - 3], ">")) {
      continue;
    }
    // Directly co_awaited calls keep their temporaries alive for the whole
    // await -- safe.
    std::size_t before = i;
    if (before >= 2 && is_punct(t[before - 1], "::")) before -= 2;
    if (before >= 2 && (is_punct(t[before - 1], ".") ||
                        is_punct(t[before - 1], "->"))) {
      before -= 2;  // obj.method( -- look before the object expression
    }
    if (before > 0 && is_ident(t[before - 1], "co_await")) continue;
    // Scan top-level arguments for an obvious temporary: a literal, or a
    // braced construction `Name{...}`.
    std::size_t close = skip_balanced(t, i + 1);
    if (close == npos) continue;
    int depth = 1;  // inside the call's parentheses
    bool arg_begin = true;
    for (std::size_t k = i + 2; k < close - 1; ++k) {
      const Token& tk = t[k];
      if (depth == 1 && is_punct(tk, ",")) {
        arg_begin = true;
        continue;
      }
      if (arg_begin && depth == 1) {
        arg_begin = false;
        // Examine the first token of this argument.
        if (tk.kind == Tok::kNumber || tk.kind == Tok::kString) {
          // Only a *sole* literal argument is unambiguous (part of a larger
          // expression could be anything).
          const bool sole = k + 1 >= close - 1 || is_punct(t[k + 1], ",");
          if (sole) {
            c.diag(t[i].line, "coro-temp-ref",
                   "temporary bound to a reference parameter of sim::Task-"
                   "returning '" + std::string(t[i].text) +
                       "': the temporary dies at the end of the full "
                       "expression, before the suspended coroutine resumes; "
                       "pass a named object or co_await the call directly");
            break;
          }
        } else if (tk.kind == Tok::kIdent && k + 1 < close - 1 &&
                   is_punct(t[k + 1], "{")) {
          c.diag(t[i].line, "coro-temp-ref",
                 "temporary '" + std::string(tk.text) +
                     "{...}' bound to a reference parameter of sim::Task-"
                     "returning '" + std::string(t[i].text) +
                     "': it dies at the end of the full expression, before "
                     "the suspended coroutine resumes; pass a named object "
                     "or co_await the call directly");
          break;
        }
      }
      if (tk.kind == Tok::kPunct) {
        if (tk.text == "(" || tk.text == "[" || tk.text == "{") ++depth;
        else if (tk.text == ")" || tk.text == "]" || tk.text == "}") --depth;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Family: hot
// ---------------------------------------------------------------------------

void check_hot(const Ctx& c) {
  const auto& t = c.t;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent) continue;
    std::string_view name = t[i].text;
    if (name == "function" && i >= 2 && is_punct(t[i - 1], "::") &&
        is_ident(t[i - 2], "std")) {
      c.diag(t[i].line, "hot-std-function",
             "std::function on a hot path: type-erased targets beyond the "
             "SBO threshold heap-allocate per construction; use a template "
             "parameter, function pointer, or the pooled inline-callable "
             "slots");
      continue;
    }
    if (name == "new") {
      if (i > 0 && is_ident(t[i - 1], "operator")) continue;
      // Placement form `new (addr) T` / `::new (addr) T` is pool machinery,
      // not an allocation.
      if (i + 1 < t.size() && is_punct(t[i + 1], "(")) continue;
      c.diag(t[i].line, "hot-naked-new",
             "naked new on a hot path: allocate from a pool (BufferPool, "
             "event slots, FramePool) or use an owning container "
             "constructed off the hot path");
      continue;
    }
    if (name == "make_shared") {
      c.diag(t[i].line, "hot-make-shared",
             "make_shared on a hot path allocates and atomically "
             "refcounts per call; prefer a pooled or stack-owned object");
    }
  }
}

// ---------------------------------------------------------------------------
// Family: buffer (flow-aware; see dataflow.h)
// ---------------------------------------------------------------------------

void check_buffer(const Ctx& c) {
  analyze_buffer_lifecycle(
      c.t, [&c](int line, const char* rule, std::string msg) {
        c.diag(line, rule, std::move(msg));
      });
}

// ---------------------------------------------------------------------------
// Family: epoch (epoch stamping and lease discipline)
// ---------------------------------------------------------------------------

void check_epoch(const Ctx& c) {
  const auto& t = c.t;
  // The transport itself (src/net/) is the one place allowed to build raw
  // Message envelopes: Network::send is the epoch-stamping helper and
  // RpcEndpoint::call/notify/multicast are its only sanctioned callers.
  const bool transport = path_contains_dir(c.file, "net");
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent) continue;
    std::string_view name = t[i].text;

    if (!transport && name == "Message" &&
        !(i > 0 && (is_ident(t[i - 1], "struct") ||
                    is_ident(t[i - 1], "class")))) {
      // `Message{...}` construction or a local `Message m;` -- both bypass
      // RpcEndpoint and therefore Network::send's dst_epoch stamping.
      const bool braced = i + 1 < t.size() && is_punct(t[i + 1], "{");
      const bool local_decl = i + 2 < t.size() &&
                              t[i + 1].kind == Tok::kIdent &&
                              is_punct(t[i + 2], ";");
      if (braced || local_decl) {
        c.diag(t[i].line, "epoch-raw-send",
               "raw net::Message construction outside the transport: sends "
               "must go through RpcEndpoint::call/notify/multicast so "
               "Network::send stamps dst_epoch (liveness-epoch fencing, "
               "PR 5); only src/net/ may build envelopes directly");
        continue;
      }
    }

    // Protection acquired without a lease timestamp.  After PR 7,
    // ReplicaStore::protect requires the current tick; this catches the
    // pattern coming back (e.g. a wrapper defaulting it again).
    if (name == "protect" && i > 0 &&
        (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->")) &&
        i + 1 < t.size() && is_punct(t[i + 1], "(")) {
      std::size_t close = skip_balanced(t, i + 1);
      if (close == npos) continue;
      int depth = 0;
      int args = 0;
      bool any = false;
      for (std::size_t k = i + 2; k < close - 1; ++k) {
        any = true;
        if (t[k].kind != Tok::kPunct) continue;
        std::string_view s = t[k].text;
        if (s == "(" || s == "[" || s == "{" || s == "<") ++depth;
        else if (s == ")" || s == "]" || s == "}" || s == ">") --depth;
        else if (s == "," && depth == 0) ++args;
      }
      if (any) args += 1;
      if (args > 0 && args < 3) {
        c.diag(t[i].line, "lease-unleased-lock",
               "protect() called without a lease timestamp: an object "
               "protection that is not stamped with the current tick can "
               "never be shed by the orphan-lock lease (PR 5) and wedges "
               "the object if the owner dies; pass sim.now()");
      }
      continue;
    }

    // Lock acquisition without a lease stamp.  Baseline lock tables pair
    // `locked_by = txn` with `locked_at = now()` so shed_stale_lock can
    // break orphaned locks; an unstamped acquisition is immortal.
    if (name == "locked_by" && i + 1 < t.size() && is_punct(t[i + 1], "=")) {
      // Releases (`locked_by = 0`) need no lease.
      if (i + 2 < t.size() && t[i + 2].kind == Tok::kNumber &&
          t[i + 2].text == "0") {
        continue;
      }
      bool stamped = false;
      const std::size_t limit = i + 80 < t.size() ? i + 80 : t.size();
      for (std::size_t k = i + 2; k + 1 < limit; ++k) {
        if (is_ident(t[k], "locked_at") && is_punct(t[k + 1], "=")) {
          stamped = true;
          break;
        }
      }
      if (!stamped) {
        c.diag(t[i].line, "lease-unleased-lock",
               "lock acquisition sets locked_by without stamping locked_at: "
               "shed_stale_lock cannot lease-break an unstamped lock, so a "
               "crashed owner wedges the object forever; set locked_at = "
               "now() alongside");
      }
      continue;
    }
  }
}

// ---------------------------------------------------------------------------
// Group-level family: codec (wire symmetry and tag registration)
// ---------------------------------------------------------------------------

int op_width(CodecOp::Kind k) {
  switch (k) {
    case CodecOp::kU8: return 1;
    case CodecOp::kU16: return 2;
    case CodecOp::kU32: return 4;
    case CodecOp::kU64: return 8;
    case CodecOp::kI64: return 8;
    default: return 0;
  }
}

const char* op_name(CodecOp::Kind k) {
  switch (k) {
    case CodecOp::kU8: return "u8";
    case CodecOp::kU16: return "u16";
    case CodecOp::kU32: return "u32";
    case CodecOp::kU64: return "u64";
    case CodecOp::kI64: return "i64";
    case CodecOp::kF64: return "f64";
    case CodecOp::kBool: return "boolean";
    case CodecOp::kBlob: return "blob";
    case CodecOp::kStr: return "str";
    case CodecOp::kRaw: return "raw";
    case CodecOp::kVec: return "vec";
    case CodecOp::kCall: return "call";
  }
  return "?";
}

int width_of_type(const SymbolTable& table, const std::string& type) {
  if (type == "uint8_t" || type == "int8_t" || type == "char") return 1;
  if (type == "uint16_t" || type == "int16_t") return 2;
  if (type == "uint32_t" || type == "int32_t") return 4;
  if (type == "uint64_t" || type == "int64_t") return 8;
  auto it = table.type_widths.find(type);
  return it != table.type_widths.end() ? it->second : 0;
}

struct GroupCtx {
  const std::vector<GroupFile>& files;
  const SymbolTable& table;
  std::vector<Diagnostic>* out;
  std::map<std::string, UsedSuppressions>* used;
  const SymbolTable* run_codecs;

  /// The body of the codec named `name`: the group's own, else a free one
  /// defined elsewhere in the run.  Null when neither exists.
  const CodecBody* codec(const std::string& name, bool encode) const {
    for (const SymbolTable* t : {&table, run_codecs}) {
      if (t == nullptr) continue;
      const auto& bodies = encode ? t->encoders : t->decoders;
      if (auto it = bodies.find(name); it != bodies.end()) return &it->second;
    }
    return nullptr;
  }

  const GroupFile* find(const std::string& path) const {
    for (const GroupFile& f : files) {
      if (f.path == path) return &f;
    }
    return nullptr;
  }

  /// Emit a diagnostic anchored in `file`, honouring that file's suppression
  /// map and codec-family selection.
  void diag(const std::string& file, int line, const char* rule,
            std::string msg) const {
    const GroupFile* gf = find(file);
    if (!gf || !(gf->families & kCodec)) return;
    const SuppressionMap& sup = gf->lexed->suppressions;
    if (auto it = sup.find(rule); it != sup.end() && it->second.count(line)) {
      if (used) (*used)[file].insert({line, rule});
      return;
    }
    out->push_back(Diagnostic{file, line, rule, std::move(msg)});
  }
};

/// One op of a flattened codec, and the outermost delegation it was
/// spliced in through (null when it is the codec's own): a decode that
/// reads a field through a helper, `v.set = read_set(r)`, names the field
/// on the delegation only.
struct FlatOp {
  const CodecOp* op = nullptr;
  const CodecOp* via = nullptr;
};

/// Splice kCall delegations so the whole op sequence of a codec is linear.
void flatten_ops(const GroupCtx& g, const std::vector<CodecOp>& ops,
                 bool encode, int depth, std::vector<FlatOp>* out,
                 const CodecOp* via = nullptr) {
  for (const CodecOp& op : ops) {
    if (op.kind == CodecOp::kCall && depth < 4) {
      if (const CodecBody* body = g.codec(op.elem, encode)) {
        flatten_ops(g, body->ops, encode, depth + 1, out,
                    via != nullptr ? via : &op);
        continue;
      }
    }
    out->push_back(FlatOp{&op, via});
  }
}

/// Resolve a kVec op's element codec to an op sequence (named helper body
/// or inline lambda ops).  Null when unresolvable.
const std::vector<CodecOp>* vec_elem_ops(const GroupCtx& g, const CodecOp& op,
                                         bool encode) {
  if (!op.elem.empty()) {
    const CodecBody* body = g.codec(op.elem, encode);
    return body != nullptr ? &body->ops : nullptr;
  }
  return op.elem_ops.empty() ? nullptr : &op.elem_ops;
}

/// The struct field an op's operand refers to: the last identifier among the
/// op's argument idents that names a field of `ws`.
std::string field_of(const CodecOp& op, const WireStruct& ws) {
  std::string found;
  for (const std::string& id : op.arg_idents) {
    for (const WireField& f : ws.fields) {
      if (f.name == id) {
        found = id;
        break;
      }
    }
  }
  return found;
}

/// The field a flattened op refers to: its own operand's, else its
/// delegation's.
std::string field_of(const FlatOp& f, const WireStruct& ws) {
  std::string found = field_of(*f.op, ws);
  if (found.empty() && f.via != nullptr) found = field_of(*f.via, ws);
  return found;
}

const WireField* field_by_name(const WireStruct& ws, const std::string& n) {
  for (const WireField& f : ws.fields) {
    if (f.name == n) return &f;
  }
  return nullptr;
}

/// Compare a kVec pair's element codecs structurally (op count + kinds,
/// recursing into nested vectors).  Reports into `mismatch` on divergence.
bool compare_elem_ops(const GroupCtx& g, const std::vector<CodecOp>& eops,
                      const std::vector<CodecOp>& dops, int depth) {
  if (depth > 4) return true;
  std::vector<FlatOp> ef, df;
  flatten_ops(g, eops, true, depth, &ef);
  flatten_ops(g, dops, false, depth, &df);
  if (ef.size() != df.size()) return false;
  for (std::size_t i = 0; i < ef.size(); ++i) {
    if (ef[i].op->kind != df[i].op->kind) return false;
    if (ef[i].op->kind == CodecOp::kVec) {
      const auto* ee = vec_elem_ops(g, *ef[i].op, true);
      const auto* de = vec_elem_ops(g, *df[i].op, false);
      if (ee && de && !compare_elem_ops(g, *ee, *de, depth + 1)) return false;
    }
  }
  return true;
}

void check_codec_struct(const GroupCtx& g, const WireStruct& ws,
                        const CodecBody& enc, const CodecBody& dec) {
  std::vector<FlatOp> ef, df;
  flatten_ops(g, enc.ops, true, 0, &ef);
  flatten_ops(g, dec.ops, false, 0, &df);

  if (ef.size() != df.size()) {
    g.diag(enc.file, enc.line, "wire-codec-asymmetry",
           "wire struct '" + ws.name + "': encode writes " +
               std::to_string(ef.size()) + " op(s) but decode (line " +
               std::to_string(dec.line) + ") reads " +
               std::to_string(df.size()) +
               "; a peer decoding this message desynchronises the stream");
    return;
  }

  std::set<std::string> enc_cover, dec_cover;
  for (std::size_t i = 0; i < ef.size(); ++i) {
    const CodecOp& e = *ef[i].op;
    const CodecOp& d = *df[i].op;
    std::string fe = field_of(ef[i], ws);
    std::string fd = field_of(df[i], ws);
    if (!fe.empty()) enc_cover.insert(fe);
    if (!fd.empty()) dec_cover.insert(fd);

    if (e.kind != d.kind) {
      g.diag(enc.file, e.line, "wire-codec-asymmetry",
             "wire struct '" + ws.name + "': op #" + std::to_string(i + 1) +
                 " encodes as '" + op_name(e.kind) +
                 (fe.empty() ? std::string() : "' (field '" + fe + "')") +
                 "' but decodes (line " + std::to_string(d.line) + ") as '" +
                 op_name(d.kind) + "'; the byte stream desynchronises");
      continue;
    }
    if (e.kind == CodecOp::kVec) {
      const auto* ee = vec_elem_ops(g, e, true);
      const auto* de = vec_elem_ops(g, d, false);
      if (ee && de && !compare_elem_ops(g, *ee, *de, 1)) {
        g.diag(enc.file, e.line, "wire-codec-asymmetry",
               "wire struct '" + ws.name + "': vector op #" +
                   std::to_string(i + 1) +
                   " uses element codecs that disagree between encode and "
                   "decode (line " + std::to_string(d.line) + ")");
      }
    }
    if (!fe.empty() && !fd.empty() && fe != fd) {
      g.diag(enc.file, e.line, "wire-codec-asymmetry",
             "wire struct '" + ws.name + "': op #" + std::to_string(i + 1) +
                 " encodes field '" + fe + "' but decode (line " +
                 std::to_string(d.line) + ") fills field '" + fd +
                 "'; fields are swapped or reordered");
      continue;
    }
    const int ow = op_width(e.kind);
    const std::string fname = !fe.empty() ? fe : fd;
    if (ow > 0 && !fname.empty()) {
      const WireField* wf = field_by_name(ws, fname);
      const int fw = wf ? width_of_type(g.table, wf->type) : 0;
      if (fw > 0 && fw != ow) {
        g.diag(enc.file, e.line, "wire-width-mismatch",
               "wire struct '" + ws.name + "': field '" + fname +
                   "' is declared " + wf->type + " (" + std::to_string(fw) +
                   " byte(s)) but coded with '" + op_name(e.kind) + "' (" +
                   std::to_string(ow) +
                   " byte(s)); values truncate silently on the wire");
      }
    }
  }

  for (const WireField& f : ws.fields) {
    const bool in_enc = enc_cover.count(f.name) != 0;
    const bool in_dec = dec_cover.count(f.name) != 0;
    if (!in_enc && !in_dec) {
      g.diag(ws.file, f.line, "wire-field-uncoded",
             "field '" + f.name + "' of wire struct '" + ws.name +
                 "' is neither written by encode nor read by decode; it "
                 "silently resets to its default across the wire");
    } else if (!in_enc) {
      g.diag(ws.file, f.line, "wire-field-uncoded",
             "field '" + f.name + "' of wire struct '" + ws.name +
                 "' is read by decode but never written by encode");
    } else if (!in_dec) {
      g.diag(ws.file, f.line, "wire-field-uncoded",
             "field '" + f.name + "' of wire struct '" + ws.name +
                 "' is written by encode but never read by decode");
    }
  }
}

void check_group_codecs(const GroupCtx& g) {
  for (const auto& [name, ws] : g.table.structs) {
    auto ei = g.table.encoders.find(name);
    auto di = g.table.decoders.find(name);
    if (ei == g.table.encoders.end() || di == g.table.decoders.end()) {
      continue;  // codec bodies not in this group (or header-only view)
    }
    check_codec_struct(g, ws, ei->second, di->second);
  }

  // Message tags: unique values, and every tag registered in a dispatch
  // table somewhere in the group (only judged when the group has one).
  std::map<long, const MsgTag*> by_value;
  for (const MsgTag& tag : g.table.msg_tags) {
    auto [it, inserted] = by_value.emplace(tag.value, &tag);
    if (!inserted && it->second->name != tag.name) {
      g.diag(tag.file, tag.line, "wire-tag-duplicate",
             "message tag '" + tag.name + "' reuses value " +
                 std::to_string(tag.value) + " already taken by '" +
                 it->second->name + "' (" + it->second->file + ":" +
                 std::to_string(it->second->line) +
                 "); the dispatch table can only route one of them");
    }
  }
  if (!g.table.registered_tags.empty()) {
    for (const MsgTag& tag : g.table.msg_tags) {
      if (!g.table.registered_tags.count(tag.name)) {
        g.diag(tag.file, tag.line, "wire-tag-unregistered",
               "message tag '" + tag.name +
                   "' is never registered in a dispatch table "
                   "(register_service); messages with this kind are dead "
                   "letters at every server");
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

void run_rules(const std::string& file, const LexResult& lexed,
               const SymbolTable& table, unsigned families,
               std::vector<Diagnostic>* out, UsedSuppressions* used) {
  Ctx c{file, lexed.tokens, lexed.suppressions, table, out, used};
  if (families & kDet) check_det(c);
  if (families & kCoro) {
    check_coro_captures(c);
    check_coro_temp_ref(c);
  }
  if (families & kHot) check_hot(c);
  if (families & kBuffer) check_buffer(c);
  if (families & kEpoch) check_epoch(c);
}

void run_group_rules(const std::vector<GroupFile>& files,
                     const SymbolTable& table, std::vector<Diagnostic>* out,
                     std::map<std::string, UsedSuppressions>* used,
                     const SymbolTable* run_codecs) {
  bool any_codec = false;
  for (const GroupFile& f : files) {
    if (f.families & kCodec) any_codec = true;
  }
  if (!any_codec) return;
  GroupCtx g{files, table, out, used, run_codecs};
  check_group_codecs(g);
}

const std::vector<std::string>& all_rule_names() {
  static const std::vector<std::string> kNames = {
      "det-rand",        "det-wall-clock",     "det-thread",
      "det-unordered-iter", "det-pointer-key",
      "coro-ref-capture", "coro-temp-ref",
      "hot-std-function", "hot-naked-new",     "hot-make-shared",
      "wire-codec-asymmetry", "wire-field-uncoded", "wire-width-mismatch",
      "wire-tag-unregistered", "wire-tag-duplicate",
      "buf-leak", "buf-double-release", "buf-use-after-release",
      "epoch-raw-send", "lease-unleased-lock",
  };
  return kNames;
}

unsigned family_of_rule(const std::string& rule) {
  if (rule.rfind("det-", 0) == 0) return kDet;
  if (rule.rfind("coro-", 0) == 0) return kCoro;
  if (rule.rfind("hot-", 0) == 0) return kHot;
  if (rule.rfind("wire-", 0) == 0) return kCodec;
  if (rule.rfind("buf-", 0) == 0) return kBuffer;
  if (rule.rfind("epoch-", 0) == 0 || rule.rfind("lease-", 0) == 0) {
    return kEpoch;
  }
  return 0;
}

}  // namespace qrdtm::lint
