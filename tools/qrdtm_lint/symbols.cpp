#include "symbols.h"

#include <cstdlib>
#include <string_view>

#include "tokwalk.h"

namespace qrdtm::lint {

namespace {

bool is_unordered_name(std::string_view s) {
  return s == "unordered_map" || s == "unordered_set" ||
         s == "unordered_multimap" || s == "unordered_multiset";
}

int builtin_width(std::string_view type) {
  if (type == "uint8_t" || type == "int8_t" || type == "char") return 1;
  if (type == "uint16_t" || type == "int16_t") return 2;
  if (type == "uint32_t" || type == "int32_t") return 4;
  if (type == "uint64_t" || type == "int64_t") return 8;
  return 0;
}

bool is_keyword(std::string_view s) {
  return s == "if" || s == "for" || s == "while" || s == "switch" ||
         s == "return" || s == "co_return" || s == "co_await" ||
         s == "sizeof" || s == "catch" || s == "do" || s == "else";
}

/// Stream parameter types: a Writer, or the RecordWriter that fills one
/// fixed-size record of encode_records, on the encode side; a Reader on the
/// decode side.
bool is_stream_type(std::string_view s, bool encode) {
  return encode ? (s == "Writer" || s == "RecordWriter") : s == "Reader";
}

CodecOp::Kind writer_op(std::string_view s, bool* found) {
  *found = true;
  if (s == "u8") return CodecOp::kU8;
  if (s == "u16") return CodecOp::kU16;
  if (s == "u32") return CodecOp::kU32;
  if (s == "u64") return CodecOp::kU64;
  if (s == "i64") return CodecOp::kI64;
  if (s == "f64") return CodecOp::kF64;
  if (s == "boolean") return CodecOp::kBool;
  if (s == "blob" || s == "blob_view") return CodecOp::kBlob;
  if (s == "str") return CodecOp::kStr;
  if (s == "raw") return CodecOp::kRaw;
  *found = false;
  return CodecOp::kU8;
}

/// Identifiers in the token range, in order (casts and std:: qualifiers are
/// included; field attribution filters against the struct's field list).
std::vector<std::string> idents_in(const std::vector<Token>& t, std::size_t b,
                                   std::size_t e) {
  std::vector<std::string> out;
  for (std::size_t k = b; k < e && k < t.size(); ++k) {
    if (t[k].kind == Tok::kIdent) out.emplace_back(t[k].text);
  }
  return out;
}

/// Split a call's argument range (just inside the parens) into top-level
/// argument sub-ranges.
std::vector<std::pair<std::size_t, std::size_t>> split_args(
    const std::vector<Token>& t, std::size_t b, std::size_t e) {
  std::vector<std::pair<std::size_t, std::size_t>> args;
  int depth = 0;
  std::size_t start = b;
  for (std::size_t k = b; k < e; ++k) {
    if (t[k].kind != Tok::kPunct) continue;
    std::string_view s = t[k].text;
    if (s == "(" || s == "[" || s == "{") ++depth;
    else if (s == ")" || s == "]" || s == "}") --depth;
    else if (s == "<") {
      std::size_t past = skip_angles(t, k);
      if (past != npos && past <= e) k = past - 1;  // skip template args
    } else if (s == "," && depth == 0) {
      args.emplace_back(start, k);
      start = k + 1;
    }
  }
  if (start < e) args.emplace_back(start, e);
  return args;
}

/// Parse a lambda element codec `[](Writer& w2, const T& e) { ... }` (or the
/// Reader flavor).  Returns the ops; `elem_type` receives the second
/// parameter's type for encoders.
void parse_codec_ops(const std::vector<Token>& t, std::size_t b, std::size_t e,
                     const std::string& var, bool encode,
                     std::vector<CodecOp>* ops);

bool parse_lambda_codec(const std::vector<Token>& t, std::size_t b,
                        std::size_t e, bool encode,
                        std::vector<CodecOp>* ops) {
  if (b >= e || !is_punct(t[b], "[")) return false;
  std::size_t cap_end = skip_balanced(t, b);
  if (cap_end == npos || cap_end >= e || !is_punct(t[cap_end], "(")) {
    return false;
  }
  std::size_t params_end = skip_balanced(t, cap_end);
  if (params_end == npos) return false;
  // Stream variable: identifier following "Writer &" / "Reader &".
  std::string var;
  for (std::size_t k = cap_end + 1; k + 2 < params_end; ++k) {
    if (t[k].kind == Tok::kIdent && is_stream_type(t[k].text, encode) &&
        is_punct(t[k + 1], "&") && t[k + 2].kind == Tok::kIdent) {
      var = std::string(t[k + 2].text);
      break;
    }
  }
  if (var.empty()) return false;
  // Body: first '{' after the parameter list (skips -> trailing returns).
  std::size_t body = params_end;
  while (body < e && !is_punct(t[body], "{")) ++body;
  if (body >= e) return false;
  std::size_t body_end = skip_balanced(t, body);
  if (body_end == npos || body_end > e + 1) return false;
  parse_codec_ops(t, body + 1, body_end - 1, var, encode, ops);
  return true;
}

/// Whether the call named by t[k] (body starting at t[b]) is a free
/// function call: not a member access, and either unqualified or qualified
/// by a namespace other than std (store::read_write_run(r) counts;
/// std::move(w) does not).
bool free_call(const std::vector<Token>& t, std::size_t b, std::size_t k) {
  if (k == b) return true;
  if (is_punct(t[k - 1], ".") || is_punct(t[k - 1], "->")) return false;
  if (!is_punct(t[k - 1], "::")) return true;
  return k >= b + 2 && t[k - 2].kind == Tok::kIdent &&
         !is_ident(t[k - 2], "std") &&
         (k == b + 2 || (!is_punct(t[k - 3], "::") &&
                         !is_punct(t[k - 3], ".") &&
                         !is_punct(t[k - 3], "->")));
}

/// Extract the ordered codec ops from a body range given the Writer/Reader
/// variable name.  Handles primitive ops, encode_vec/decode_vec,
/// encode_records/decode_records and decode_entries (named helper or inline
/// lambda element codec), and free-encoder delegation.
void parse_codec_ops(const std::vector<Token>& t, std::size_t b, std::size_t e,
                     const std::string& var, bool encode,
                     std::vector<CodecOp>* ops) {
  for (std::size_t k = b; k < e; ++k) {
    if (t[k].kind != Tok::kIdent) continue;

    // <var>.op(args) -- primitive codec call on the stream variable.
    if (is_ident(t[k], var) && k + 3 < e && is_punct(t[k + 1], ".") &&
        t[k + 2].kind == Tok::kIdent && is_punct(t[k + 3], "(")) {
      std::string_view opname = t[k + 2].text;
      std::size_t close = skip_balanced(t, k + 3);
      if (close == npos || close > e) continue;
      bool found = false;
      CodecOp::Kind kind = writer_op(opname, &found);
      if (found) {
        CodecOp op;
        op.kind = kind;
        op.line = t[k].line;
        op.arg_idents = idents_in(t, k + 4, close - 1);
        ops->push_back(std::move(op));
      }
      // reserve()/size()/bytes()/expect_done()/... are not codec ops.
      k = close - 1;
      continue;
    }

    // encode_vec(w, field, elem) / decode_vec<T>(r, elem), and the
    // fixed-record pair encode_records<N>(w, field, elem) /
    // decode_records<N, T, elem>(r), whose decoder is the last template
    // argument.  All write a u32 count and then the elements.  A run of
    // variable-length entries read in place, decode_entries<T, elem>(r),
    // is the decode half of an encode_vec and names its entry decoder the
    // same way.
    if (is_ident(t[k], encode ? "encode_vec" : "decode_vec") ||
        is_ident(t[k], encode ? "encode_records" : "decode_records") ||
        (!encode && is_ident(t[k], "decode_entries"))) {
      std::size_t j = k + 1;
      std::string tmpl_type;
      if (j < e && is_punct(t[j], "<")) {
        std::size_t past = skip_angles(t, j);
        if (past != npos) {
          // Element type: last identifier in the template argument.
          auto ids = idents_in(t, j + 1, past - 1);
          if (!ids.empty()) tmpl_type = ids.back();
          j = past;
        }
      }
      if (j >= e || !is_punct(t[j], "(")) continue;
      std::size_t close = skip_balanced(t, j);
      if (close == npos || close > e) continue;
      auto args = split_args(t, j + 1, close - 1);
      CodecOp op;
      op.kind = CodecOp::kVec;
      op.line = t[k].line;
      op.elem = tmpl_type;  // decode: remember T for field resolution
      if (args.size() >= 2 && encode) {
        op.arg_idents = idents_in(t, args[1].first, args[1].second);
      }
      const std::size_t elem_arg = encode ? 2 : 1;
      if (args.size() > elem_arg) {
        auto [ab, ae] = args[elem_arg];
        if (ae - ab == 1 && t[ab].kind == Tok::kIdent) {
          op.elem = std::string(t[ab].text);  // named helper codec
        } else {
          parse_lambda_codec(t, ab, ae, encode, &op.elem_ops);
          if (!tmpl_type.empty()) op.elem = "";  // inline lambda wins
        }
      }
      ops->push_back(std::move(op));
      k = close - 1;
      continue;
    }

    // Free-encoder delegation: fname(w, ...) with the stream variable as
    // the first argument (e.g. ReadRequest::encode_into forwarding to
    // encode_read_request, or a lambda calling store::encode_write).  Only
    // free calls count.
    if (encode && k + 1 < e && is_punct(t[k + 1], "(") &&
        !is_keyword(t[k].text) && free_call(t, b, k)) {
      std::size_t close = skip_balanced(t, k + 1);
      if (close == npos || close > e) continue;
      auto args = split_args(t, k + 2, close - 1);
      if (!args.empty() && args[0].second - args[0].first == 1 &&
          is_ident(t[args[0].first], var)) {
        CodecOp op;
        op.kind = CodecOp::kCall;
        op.line = t[k].line;
        op.elem = std::string(t[k].text);
        ops->push_back(std::move(op));
        k = close - 1;
        continue;
      }
    }

    // Decode-side delegation: helper(r) calls (e.g. decode_batch_write(r))
    // appear as vector element codecs only in this tree, which the kVec
    // case covers; a direct `x = helper(r)` splice is matched here.
    if (!encode && k + 1 < e && is_punct(t[k + 1], "(") &&
        !is_keyword(t[k].text) && t[k].text != "Reader" &&
        free_call(t, b, k)) {
      std::size_t close = skip_balanced(t, k + 1);
      if (close == npos || close > e) continue;
      auto args = split_args(t, k + 2, close - 1);
      if (args.size() == 1 && args[0].second - args[0].first == 1 &&
          is_ident(t[args[0].first], var)) {
        CodecOp op;
        op.kind = CodecOp::kCall;
        op.line = t[k].line;
        op.elem = std::string(t[k].text);
        ops->push_back(std::move(op));
        k = close - 1;
        continue;
      }
    }
  }
}

/// Attribute decode ops to fields: for each op in a decode body, the field
/// is the last identifier on the left of the enclosing statement's `=`.
void attribute_decode_fields(const std::vector<Token>& t, std::size_t b,
                             std::size_t e, std::vector<CodecOp>* ops) {
  // Build statement spans and their lhs idents, then match ops by line.
  std::size_t stmt_start = b;
  std::size_t opi = 0;
  for (std::size_t k = b; k < e && opi < ops->size(); ++k) {
    const bool stmt_end = t[k].kind == Tok::kPunct &&
                          (t[k].text == ";" || t[k].text == "{" ||
                           t[k].text == "}");
    if (!stmt_end) continue;
    // lhs: tokens up to the first top-level '=' in [stmt_start, k).
    std::string field;
    int depth = 0;
    for (std::size_t j = stmt_start; j < k; ++j) {
      if (t[j].kind == Tok::kPunct) {
        std::string_view s = t[j].text;
        if (s == "(" || s == "[") ++depth;
        else if (s == ")" || s == "]") --depth;
        else if (s == "=" && depth == 0) {
          for (std::size_t m = stmt_start; m < j; ++m) {
            if (t[m].kind == Tok::kIdent) field = std::string(t[m].text);
          }
          break;
        }
      }
    }
    // Every op whose token line lies inside this statement gets the lhs.
    while (opi < ops->size() && !field.empty() &&
           (*ops)[opi].line >= t[stmt_start].line &&
           (*ops)[opi].line <= t[k].line) {
      (*ops)[opi].arg_idents.push_back(field);
      ++opi;
    }
    while (opi < ops->size() && (*ops)[opi].line <= t[k].line) ++opi;
    stmt_start = k + 1;
  }
}

/// Parse one struct definition starting at the 'struct' keyword.
void parse_struct(const std::string& file, const std::vector<Token>& t,
                  std::size_t i, SymbolTable* table) {
  if (i + 2 >= t.size() || t[i + 1].kind != Tok::kIdent) return;
  WireStruct ws;
  ws.name = std::string(t[i + 1].text);
  ws.file = file;
  ws.line = t[i + 1].line;
  std::size_t brace = i + 2;
  while (brace < t.size() && !is_punct(t[brace], "{")) {
    if (is_punct(t[brace], ";")) return;  // forward declaration
    ++brace;
  }
  if (brace >= t.size()) return;
  std::size_t body_end = skip_balanced(t, brace);
  if (body_end == npos) return;

  std::size_t k = brace + 1;
  const std::size_t e = body_end - 1;
  while (k < e) {
    std::size_t stmt_start = k;
    bool fn_decl = false;
    std::string fn_name;
    std::size_t eq = npos;
    while (k < e) {
      const Token& tk = t[k];
      if (tk.kind == Tok::kPunct) {
        std::string_view s = tk.text;
        if (s == "(") {
          if (!fn_decl && k > stmt_start && t[k - 1].kind == Tok::kIdent) {
            fn_decl = true;
            fn_name = std::string(t[k - 1].text);
          }
          std::size_t past = skip_balanced(t, k);
          if (past == npos || past > e) { k = e; break; }
          k = past;
          continue;
        }
        if (s == "<") {
          std::size_t past = skip_angles(t, k);
          if (past != npos && past <= e) { k = past; continue; }
        }
        if (s == "{") {  // inline member body or braced init: ends statement
          std::size_t past = skip_balanced(t, k);
          k = past == npos || past > e ? e : past;
          break;
        }
        if (s == "=" && eq == npos) eq = k;
        if (s == ";") { break; }
      }
      ++k;
    }
    const std::size_t stmt_end = k;
    if (k < e && is_punct(t[k], ";")) ++k;

    if (fn_decl) {
      if (fn_name == "encode" || fn_name == "encode_into") {
        ws.declares_encode = true;
      } else if (fn_name == "decode") {
        ws.declares_decode = true;
      }
      continue;
    }
    // Field: `<type tokens> name [= init]`.
    const std::size_t decl_end = eq == npos ? stmt_end : eq;
    std::vector<std::pair<std::string, std::size_t>> ids;
    bool is_vector = false;
    std::string vec_elem;
    for (std::size_t j = stmt_start; j < decl_end; ++j) {
      if (t[j].kind != Tok::kIdent) continue;
      std::string_view s = t[j].text;
      if (s == "std" || s == "const" || s == "mutable" || s == "public" ||
          s == "private" || s == "protected") {
        continue;
      }
      if (s == "using" || s == "static" || s == "friend" || s == "typedef" ||
          s == "enum" || s == "struct" || s == "class") {
        ids.clear();
        break;
      }
      if (s == "vector" && j + 1 < decl_end && is_punct(t[j + 1], "<")) {
        is_vector = true;
        std::size_t past = skip_angles(t, j + 1);
        if (past != npos) {
          auto elems = idents_in(t, j + 2, past - 1);
          // Drop std:: qualifiers; keep the principal element type.
          for (const std::string& id : elems) {
            if (id != "std") { vec_elem = id; break; }
          }
          ids.emplace_back("vector", t[j].line);
          j = past - 1;
        }
        continue;
      }
      ids.emplace_back(std::string(s), t[j].line);
    }
    if (ids.size() < 2) continue;
    WireField f;
    f.name = ids.back().first;
    f.type = is_vector ? "vector" : ids[ids.size() - 2].first;
    f.elem = vec_elem;
    f.line = static_cast<int>(ids.back().second);
    ws.fields.push_back(std::move(f));
  }
  if (!ws.fields.empty() || ws.declares_encode || ws.declares_decode) {
    table->structs.emplace(ws.name, std::move(ws));
  }
}

}  // namespace

void collect_symbols(const std::string& file, const LexResult& lexed,
                     SymbolTable* table) {
  const auto& t = lexed.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent) continue;
    std::string_view name = t[i].text;

    // ---- legacy det/coro symbols -------------------------------------
    // `using Alias = std::unordered_map<...>;` and integer-alias widths.
    if (name == "using" && i + 4 < t.size() && t[i + 1].kind == Tok::kIdent &&
        is_punct(t[i + 2], "=")) {
      std::size_t j = i + 3;
      if (is_ident(t[j], "std") && is_punct(t[j + 1], "::")) j += 2;
      if (j < t.size() && is_unordered_name(t[j].text)) {
        table->unordered_aliases.insert(std::string(t[i + 1].text));
      }
      if (j < t.size() && t[j].kind == Tok::kIdent) {
        int w = builtin_width(t[j].text);
        if (w == 0) {  // alias of an alias collected earlier
          auto it = table->type_widths.find(std::string(t[j].text));
          if (it != table->type_widths.end()) w = it->second;
        }
        if (w > 0) table->type_widths[std::string(t[i + 1].text)] = w;
      }
      continue;
    }

    // `enum class X : std::uint8_t {` -- underlying width.
    if (name == "enum" && i + 1 < t.size() && is_ident(t[i + 1], "class") &&
        i + 2 < t.size() && t[i + 2].kind == Tok::kIdent) {
      std::size_t j = i + 3;
      if (j < t.size() && is_punct(t[j], ":")) {
        ++j;
        if (j + 1 < t.size() && is_ident(t[j], "std") &&
            is_punct(t[j + 1], "::")) {
          j += 2;
        }
        if (j < t.size() && t[j].kind == Tok::kIdent) {
          int w = builtin_width(t[j].text);
          if (w > 0) table->type_widths[std::string(t[i + 2].text)] = w;
        }
      }
      continue;
    }

    // `std::unordered_map<...> name` -- also accessor declarations like
    // `const std::unordered_map<...>& entries() const`, whose name lets the
    // det rule flag range-fors over `obj.entries()`.
    if (is_unordered_name(name) && i + 1 < t.size() &&
        is_punct(t[i + 1], "<")) {
      std::size_t past = skip_angles(t, i + 1);
      if (past == npos) continue;
      while (past < t.size() &&
             (is_punct(t[past], "&") || is_punct(t[past], "*") ||
              is_ident(t[past], "const"))) {
        ++past;
      }
      if (past < t.size() && t[past].kind == Tok::kIdent) {
        table->unordered_vars.insert(std::string(t[past].text));
      }
      continue;
    }

    // `Alias name` for a previously seen unordered alias.
    if (table->unordered_aliases.count(std::string(name)) &&
        i + 1 < t.size() && t[i + 1].kind == Tok::kIdent) {
      table->unordered_vars.insert(std::string(t[i + 1].text));
      continue;
    }

    // `sim::Task<...> name(params)` with a reference parameter.
    if (name == "Task" && i + 1 < t.size() && is_punct(t[i + 1], "<")) {
      std::size_t past = skip_angles(t, i + 1);
      if (past == npos || past >= t.size()) continue;
      std::size_t name_at = past;
      if (t[name_at].kind == Tok::kIdent && name_at + 1 < t.size() &&
          is_punct(t[name_at + 1], "::")) {
        name_at += 2;
      }
      if (name_at + 1 >= t.size() || t[name_at].kind != Tok::kIdent ||
          !is_punct(t[name_at + 1], "(")) {
        continue;
      }
      std::size_t close = skip_balanced(t, name_at + 1);
      if (close == npos) continue;
      bool ref_param = false;
      int depth = 0;
      for (std::size_t k = name_at + 1; k < close - 1; ++k) {
        if (t[k].kind != Tok::kPunct) continue;
        if (t[k].text == "(" || t[k].text == "<" || t[k].text == "[") ++depth;
        else if (t[k].text == ")" || t[k].text == ">" || t[k].text == "]") --depth;
        else if (t[k].text == "&" && depth == 1) ref_param = true;
      }
      if (ref_param) {
        table->ref_param_task_fns.insert(std::string(t[name_at].text));
      }
      continue;
    }

    // ---- wire index --------------------------------------------------
    if (name == "struct") {
      parse_struct(file, t, i, table);
      continue;
    }

    // `constexpr <...>MsgKind kFoo = 0xNNNN;`
    if (name == "MsgKind" && i + 3 < t.size() &&
        t[i + 1].kind == Tok::kIdent && is_punct(t[i + 2], "=") &&
        t[i + 3].kind == Tok::kNumber) {
      MsgTag tag;
      tag.name = std::string(t[i + 1].text);
      tag.file = file;
      tag.line = t[i + 1].line;
      tag.value = std::strtol(std::string(t[i + 3].text).c_str(), nullptr, 0);
      table->msg_tags.push_back(std::move(tag));
      continue;
    }

    // `register_service(msg::kFoo, ...)` -- the dispatch table.
    if (name == "register_service" && i + 1 < t.size() &&
        is_punct(t[i + 1], "(")) {
      std::size_t close = skip_balanced(t, i + 1);
      if (close == npos) continue;
      auto args = split_args(t, i + 2, close - 1);
      if (!args.empty()) {
        auto ids = idents_in(t, args[0].first, args[0].second);
        if (!ids.empty()) table->registered_tags.insert(ids.back());
      }
      continue;
    }

    // ---- codec bodies ------------------------------------------------
    // Function definition with a Writer& or Reader& parameter, or a member
    // `X::decode(const Bytes&)` or one of the in-place forms a decode may
    // delegate to, `X::decode_into(const Bytes&)` and
    // `X::decode_view(const Bytes&)`.
    if (i + 1 < t.size() && is_punct(t[i + 1], "(") && !is_keyword(name)) {
      std::size_t close = skip_balanced(t, i + 1);
      if (close == npos) continue;
      // Definition: a '{' follows the parameter list (possibly after
      // const / noexcept / trailing-return tokens).
      std::size_t body = close;
      bool is_def = false;
      for (std::size_t guard = 0; body < t.size() && guard < 12;
           ++body, ++guard) {
        if (is_punct(t[body], "{")) { is_def = true; break; }
        if (is_punct(t[body], ";") || is_punct(t[body], "}") ||
            is_punct(t[body], "=") || is_punct(t[body], ",") ||
            is_punct(t[body], ")")) {
          break;
        }
      }
      if (!is_def) continue;
      std::size_t body_end = skip_balanced(t, body);
      if (body_end == npos) continue;

      // Parameter scan.
      std::string writer_var, reader_var;
      std::string second_param_type;
      bool bytes_param = false;
      {
        auto params = split_args(t, i + 2, close - 1);
        for (std::size_t pi = 0; pi < params.size(); ++pi) {
          auto [pb, pe] = params[pi];
          for (std::size_t k = pb; k < pe; ++k) {
            if (t[k].kind != Tok::kIdent) continue;
            if (t[k].text == "Bytes") bytes_param = true;
            const bool enc = is_stream_type(t[k].text, true);
            if ((enc || is_stream_type(t[k].text, false)) &&
                k + 2 < pe && is_punct(t[k + 1], "&") &&
                t[k + 2].kind == Tok::kIdent) {
              if (enc) {
                writer_var = std::string(t[k + 2].text);
              } else {
                reader_var = std::string(t[k + 2].text);
              }
            }
          }
          if (pi == 1) {
            auto ids = idents_in(t, pb, pe);
            for (const std::string& id : ids) {
              if (id != "std" && id != "const") {
                second_param_type = id;
                break;
              }
            }
          }
        }
      }

      const bool member = i >= 2 && is_punct(t[i - 1], "::") &&
                          t[i - 2].kind == Tok::kIdent;

      if (!writer_var.empty()) {
        CodecBody cb;
        cb.member = member && name == "encode_into";
        cb.name = cb.member ? std::string(t[i - 2].text) : std::string(name);
        cb.file = file;
        cb.line = t[i].line;
        cb.elem_type = second_param_type;
        parse_codec_ops(t, body + 1, body_end - 1, writer_var, true, &cb.ops);
        if (!cb.ops.empty()) table->encoders.emplace(cb.name, std::move(cb));
        i = body_end - 1;
        continue;
      }

      const bool member_decode =
          member &&
          (name == "decode" || name == "decode_into" ||
           name == "decode_view") &&
          bytes_param;
      if (member_decode && reader_var.empty()) {
        // `X X::decode(const Bytes& b) { Reader r(b); ... }`: find the
        // Reader local.  A decode that delegates to decode_into or
        // decode_view has none and records no body; the delegate's stands
        // for the struct.
        for (std::size_t k = body + 1; k + 2 < body_end; ++k) {
          if (is_ident(t[k], "Reader") && t[k + 1].kind == Tok::kIdent &&
              is_punct(t[k + 2], "(")) {
            reader_var = std::string(t[k + 1].text);
            break;
          }
        }
      }
      if (!reader_var.empty() && (member_decode || !member)) {
        CodecBody cb;
        cb.member = member_decode;
        cb.name = member_decode ? std::string(t[i - 2].text)
                                : std::string(name);
        cb.file = file;
        cb.line = t[i].line;
        // Free decoder: return type is the identifier before the name.
        if (!member_decode && i > 0 && t[i - 1].kind == Tok::kIdent) {
          cb.elem_type = std::string(t[i - 1].text);
        }
        parse_codec_ops(t, body + 1, body_end - 1, reader_var, false,
                        &cb.ops);
        attribute_decode_fields(t, body + 1, body_end - 1, &cb.ops);
        if (!cb.ops.empty()) table->decoders.emplace(cb.name, std::move(cb));
        i = body_end - 1;
        continue;
      }
    }
  }
}

}  // namespace qrdtm::lint
