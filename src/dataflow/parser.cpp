#include "dataflow/parser.hpp"

#include <cctype>
#include <map>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/check.hpp"
#include "dataflow/udf.hpp"

namespace clusterbft::dataflow {

namespace {

// ---------------------------------------------------------------- lexer --

enum class Tok {
  kIdent,
  kLong,
  kDouble,
  kString,
  kSymbol,  // one of = ; , ( ) . $ :: and operators
  kEnd,
};

struct Token {
  Tok kind = Tok::kEnd;
  std::string text;       // identifier (upper-cased copy in `upper`), symbol
  std::string upper;      // upper-case of text for keyword matching
  std::int64_t long_val = 0;
  double double_val = 0;
  std::size_t line = 1;
  std::size_t col = 1;
};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) { advance(); }

  const Token& peek() const { return tok_; }

  Token take() {
    Token t = tok_;
    advance();
    return t;
  }

 private:
  void advance() {
    skip_space_and_comments();
    tok_ = Token{};
    tok_.line = line_;
    tok_.col = col_;
    if (pos_ >= src_.size()) {
      tok_.kind = Tok::kEnd;
      return;
    }
    const char c = src_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      lex_ident();
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      lex_number();
    } else if (c == '\'') {
      lex_string();
    } else {
      lex_symbol();
    }
  }

  void skip_space_and_comments() {
    for (;;) {
      while (pos_ < src_.size() &&
             std::isspace(static_cast<unsigned char>(src_[pos_]))) {
        bump();
      }
      if (pos_ + 1 < src_.size() && src_[pos_] == '-' &&
          src_[pos_ + 1] == '-') {
        while (pos_ < src_.size() && src_[pos_] != '\n') bump();
        continue;
      }
      break;
    }
  }

  void bump() {
    if (src_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  void lex_ident() {
    tok_.kind = Tok::kIdent;
    while (pos_ < src_.size() &&
           (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
            src_[pos_] == '_')) {
      tok_.text.push_back(src_[pos_]);
      bump();
    }
    tok_.upper = tok_.text;
    for (char& ch : tok_.upper)
      ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
  }

  void lex_number() {
    std::string num;
    bool is_double = false;
    while (pos_ < src_.size() &&
           (std::isdigit(static_cast<unsigned char>(src_[pos_])) ||
            src_[pos_] == '.')) {
      if (src_[pos_] == '.') {
        // ".." would be a syntax error later; a single '.' makes a double.
        if (is_double) break;
        is_double = true;
      }
      num.push_back(src_[pos_]);
      bump();
    }
    try {
      if (is_double) {
        tok_.kind = Tok::kDouble;
        tok_.double_val = std::stod(num);
      } else {
        tok_.kind = Tok::kLong;
        tok_.long_val = std::stoll(num);
      }
    } catch (const std::out_of_range&) {
      throw ParseError("numeric literal out of range: " + num, tok_.line,
                       tok_.col);
    }
    tok_.text = num;
  }

  void lex_string() {
    bump();  // opening quote
    tok_.kind = Tok::kString;
    while (pos_ < src_.size() && src_[pos_] != '\'') {
      tok_.text.push_back(src_[pos_]);
      bump();
    }
    if (pos_ >= src_.size()) {
      throw ParseError("unterminated string literal", tok_.line, tok_.col);
    }
    bump();  // closing quote
  }

  void lex_symbol() {
    tok_.kind = Tok::kSymbol;
    auto two = [&](const char* s) {
      if (pos_ + 1 < src_.size() && src_[pos_] == s[0] &&
          src_[pos_ + 1] == s[1]) {
        tok_.text = s;
        bump();
        bump();
        return true;
      }
      return false;
    };
    if (two("==") || two("!=") || two("<=") || two(">=") || two("::")) return;
    tok_.text.push_back(src_[pos_]);
    bump();
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t col_ = 1;
  Token tok_;
};

// --------------------------------------------------------------- parser --

/// Everything the parser knows about a defined alias.
struct AliasInfo {
  OpId op = 0;
  Schema schema;
  // For grouped/cogrouped relations: inner tuple schema per bag field,
  // keyed by the bag field's name (the grouped relation's alias). GROUP
  // yields one entry, COGROUP one per input relation.
  std::map<std::string, Schema> bags;
  // For grouped relations: the schema the "group" field flattens into
  // (the key columns, keeping their names).
  std::optional<Schema> group_inner;
};

class Parser {
 public:
  explicit Parser(std::string_view src) : lex_(src) {}

  LogicalPlan parse() {
    while (lex_.peek().kind != Tok::kEnd) {
      statement();
    }
    plan_.validate();
    return std::move(plan_);
  }

 private:
  [[noreturn]] void fail(const std::string& msg) {
    const Token& t = lex_.peek();
    throw ParseError(msg, t.line, t.col);
  }

  bool peek_symbol(const std::string& s) {
    return lex_.peek().kind == Tok::kSymbol && lex_.peek().text == s;
  }

  bool peek_keyword(const std::string& kw) {
    return lex_.peek().kind == Tok::kIdent && lex_.peek().upper == kw;
  }

  void expect_symbol(const std::string& s) {
    if (!peek_symbol(s)) fail("expected '" + s + "'");
    lex_.take();
  }

  void expect_keyword(const std::string& kw) {
    if (!peek_keyword(kw)) fail("expected " + kw);
    lex_.take();
  }

  Token expect_ident() {
    if (lex_.peek().kind != Tok::kIdent) fail("expected identifier");
    return lex_.take();
  }

  Token expect_string() {
    if (lex_.peek().kind != Tok::kString) fail("expected 'string'");
    return lex_.take();
  }

  std::int64_t expect_long() {
    if (lex_.peek().kind != Tok::kLong) fail("expected integer");
    return lex_.take().long_val;
  }

  const AliasInfo& lookup_alias(const std::string& name) {
    auto it = aliases_.find(name);
    if (it == aliases_.end()) fail("unknown alias: " + name);
    return it->second;
  }

  void define_alias(const std::string& name, AliasInfo info) {
    // Pig allows redefinition; the latest definition wins.
    aliases_[name] = std::move(info);
  }

  void statement() {
    if (peek_keyword("STORE")) {
      store_statement();
      return;
    }
    if (peek_keyword("SPLIT")) {
      split_statement();
      return;
    }
    const Token alias = expect_ident();
    expect_symbol("=");
    const Token op_tok = expect_ident();
    const std::string& op = op_tok.upper;
    if (op == "LOAD") {
      load_statement(alias.text);
    } else if (op == "FILTER") {
      filter_statement(alias.text);
    } else if (op == "FOREACH") {
      foreach_statement(alias.text);
    } else if (op == "GROUP") {
      group_statement(alias.text);
    } else if (op == "COGROUP") {
      cogroup_statement(alias.text);
    } else if (op == "JOIN") {
      join_statement(alias.text);
    } else if (op == "UNION") {
      union_statement(alias.text);
    } else if (op == "DISTINCT") {
      distinct_statement(alias.text);
    } else if (op == "ORDER") {
      order_statement(alias.text);
    } else if (op == "LIMIT") {
      limit_statement(alias.text);
    } else if (op == "SAMPLE") {
      sample_statement(alias.text);
    } else {
      fail("unknown operator: " + op_tok.text);
    }
    expect_symbol(";");
  }

  void load_statement(const std::string& alias) {
    const Token path = expect_string();
    expect_keyword("AS");
    expect_symbol("(");
    std::vector<Field> fields;
    for (;;) {
      const Token name = expect_ident();
      expect_symbol(":");
      const Token type = expect_ident();
      ValueType vt;
      if (type.upper == "LONG" || type.upper == "INT") {
        vt = ValueType::kLong;
      } else if (type.upper == "DOUBLE" || type.upper == "FLOAT") {
        vt = ValueType::kDouble;
      } else if (type.upper == "CHARARRAY") {
        vt = ValueType::kChararray;
      } else {
        fail("unknown type: " + type.text);
      }
      fields.push_back({name.text, vt});
      if (peek_symbol(",")) {
        lex_.take();
        continue;
      }
      break;
    }
    expect_symbol(")");
    OpNode n;
    n.kind = OpKind::kLoad;
    n.alias = alias;
    n.path = path.text;
    n.schema = Schema(std::move(fields));
    const OpId id = plan_.add(std::move(n));
    AliasInfo out;
    out.op = id;
    out.schema = plan_.node(id).schema;
    define_alias(alias, std::move(out));
  }

  void filter_statement(const std::string& alias) {
    const Token in = expect_ident();
    const AliasInfo info = lookup_alias(in.text);
    expect_keyword("BY");
    ExprPtr pred = parse_expr(info);
    OpNode n;
    n.kind = OpKind::kFilter;
    n.alias = alias;
    n.inputs = {info.op};
    n.schema = info.schema;
    n.predicate = std::move(pred);
    const OpId id = plan_.add(std::move(n));
    AliasInfo out = info;
    out.op = id;
    define_alias(alias, std::move(out));
  }

  void foreach_statement(const std::string& alias) {
    const Token in = expect_ident();
    const AliasInfo info = lookup_alias(in.text);
    expect_keyword("GENERATE");
    std::vector<GenField> gen;
    std::vector<Field> out_fields;
    auto dedup = [&out_fields](std::string name, std::size_t index) {
      for (const Field& f : out_fields) {
        if (f.name == name) {
          name += "_" + std::to_string(index);
          break;
        }
      }
      return name;
    };
    for (;;) {
      if (peek_keyword("FLATTEN")) {
        lex_.take();
        expect_symbol("(");
        ExprPtr e = parse_expr(info);
        expect_symbol(")");
        // FLATTEN of the nested "group" tuple expands into the key
        // columns; flattening a scalar is the identity.
        GenField g;
        g.flatten = true;
        if (e->kind == Expr::Kind::kColumn &&
            info.schema.at(e->column).type == ValueType::kTuple &&
            info.group_inner) {
          g.width = info.group_inner->size();
          for (const Field& f : info.group_inner->fields()) {
            out_fields.push_back(
                {dedup("group::" + f.name, out_fields.size()), f.type});
          }
        } else {
          g.width = 1;
          out_fields.push_back({dedup(derive_field_name(*e, gen.size()),
                                      out_fields.size()),
                                gen_result_type(*e, info)});
        }
        g.name = out_fields.back().name;
        g.expr = std::move(e);
        gen.push_back(std::move(g));
      } else {
        ExprPtr e = parse_expr(info);
        std::string name;
        if (peek_keyword("AS")) {
          lex_.take();
          name = expect_ident().text;
        } else {
          name = derive_field_name(*e, gen.size());
        }
        name = dedup(std::move(name), gen.size());
        out_fields.push_back({name, gen_result_type(*e, info)});
        gen.push_back({std::move(e), name, false, 1});
      }
      if (peek_symbol(",")) {
        lex_.take();
        continue;
      }
      break;
    }
    OpNode n;
    n.kind = OpKind::kForeach;
    n.alias = alias;
    n.inputs = {info.op};
    n.schema = Schema(std::move(out_fields));
    n.gen = std::move(gen);
    const OpId id = plan_.add(std::move(n));
    AliasInfo out;
    out.op = id;
    out.schema = plan_.node(id).schema;
    define_alias(alias, std::move(out));
  }

  /// `BY col` or `BY (col, col, ...)`.
  std::vector<std::size_t> parse_key_list(const AliasInfo& info) {
    std::vector<std::size_t> keys;
    if (peek_symbol("(")) {
      lex_.take();
      for (;;) {
        keys.push_back(parse_column_ref(info));
        if (peek_symbol(",")) {
          lex_.take();
          continue;
        }
        break;
      }
      expect_symbol(")");
    } else {
      keys.push_back(parse_column_ref(info));
    }
    return keys;
  }

  void group_statement(const std::string& alias) {
    const Token in = expect_ident();
    const AliasInfo info = lookup_alias(in.text);
    expect_keyword("BY");
    const std::vector<std::size_t> keys = parse_key_list(info);

    // Single key: the group field is the scalar itself. Multiple keys:
    // the group field is a nested tuple of the keys (Pig semantics).
    const ValueType group_type = keys.size() == 1
                                     ? info.schema.at(keys[0]).type
                                     : ValueType::kTuple;
    std::vector<Field> inner;
    for (std::size_t k : keys) inner.push_back(info.schema.at(k));

    OpNode n;
    n.kind = OpKind::kGroup;
    n.alias = alias;
    n.inputs = {info.op};
    n.group_keys = keys;
    n.schema = Schema({{"group", group_type}, {in.text, ValueType::kBag}});
    const OpId id = plan_.add(std::move(n));
    AliasInfo out;
    out.op = id;
    out.schema = plan_.node(id).schema;
    out.bags[in.text] = info.schema;
    out.group_inner = Schema(std::move(inner));
    define_alias(alias, std::move(out));
  }

  /// `COGROUP a BY k, b BY k2;` — groups both relations by key; every key
  /// present in either side yields (group, bag_of_a, bag_of_b), with an
  /// empty bag for the absent side (Pig's outer cogroup semantics).
  void cogroup_statement(const std::string& alias) {
    const Token l = expect_ident();
    const AliasInfo linfo = lookup_alias(l.text);
    expect_keyword("BY");
    const std::vector<std::size_t> lkeys = parse_key_list(linfo);
    expect_symbol(",");
    const Token r = expect_ident();
    if (r.text == l.text) fail("COGROUP inputs must be distinct aliases");
    const AliasInfo rinfo = lookup_alias(r.text);
    expect_keyword("BY");
    const std::vector<std::size_t> rkeys = parse_key_list(rinfo);
    if (lkeys.size() != rkeys.size()) {
      fail("COGROUP key lists must have the same length");
    }

    const ValueType group_type = lkeys.size() == 1
                                     ? linfo.schema.at(lkeys[0]).type
                                     : ValueType::kTuple;
    std::vector<Field> inner;
    for (std::size_t k : lkeys) inner.push_back(linfo.schema.at(k));

    OpNode n;
    n.kind = OpKind::kCogroup;
    n.alias = alias;
    n.inputs = {linfo.op, rinfo.op};
    n.left_keys = lkeys;
    n.right_keys = rkeys;
    n.schema = Schema({{"group", group_type},
                       {l.text, ValueType::kBag},
                       {r.text, ValueType::kBag}});
    const OpId id = plan_.add(std::move(n));
    AliasInfo out;
    out.op = id;
    out.schema = plan_.node(id).schema;
    out.bags[l.text] = linfo.schema;
    out.bags[r.text] = rinfo.schema;
    out.group_inner = Schema(std::move(inner));
    define_alias(alias, std::move(out));
  }

  void join_statement(const std::string& alias) {
    const Token l = expect_ident();
    const AliasInfo linfo = lookup_alias(l.text);
    expect_keyword("BY");
    const std::vector<std::size_t> lkeys = parse_key_list(linfo);
    expect_symbol(",");
    const Token r = expect_ident();
    const AliasInfo rinfo = lookup_alias(r.text);
    expect_keyword("BY");
    const std::vector<std::size_t> rkeys = parse_key_list(rinfo);
    if (lkeys.size() != rkeys.size()) {
      fail("JOIN key lists must have the same length");
    }

    std::vector<Field> fields;
    for (const Field& f : linfo.schema.fields()) {
      fields.push_back({l.text + "::" + f.name, f.type});
    }
    for (const Field& f : rinfo.schema.fields()) {
      fields.push_back({r.text + "::" + f.name, f.type});
    }
    OpNode n;
    n.kind = OpKind::kJoin;
    n.alias = alias;
    n.inputs = {linfo.op, rinfo.op};
    n.left_keys = lkeys;
    n.right_keys = rkeys;
    n.schema = Schema(std::move(fields));
    const OpId id = plan_.add(std::move(n));
    AliasInfo out;
    out.op = id;
    out.schema = plan_.node(id).schema;
    define_alias(alias, std::move(out));
  }

  void union_statement(const std::string& alias) {
    std::vector<OpId> inputs;
    Schema schema;
    for (;;) {
      const Token in = expect_ident();
      const AliasInfo info = lookup_alias(in.text);
      if (inputs.empty()) {
        schema = info.schema;
      } else if (info.schema.size() != schema.size()) {
        fail("UNION inputs must have the same arity");
      }
      inputs.push_back(info.op);
      if (peek_symbol(",")) {
        lex_.take();
        continue;
      }
      break;
    }
    if (inputs.size() < 2) fail("UNION needs at least two inputs");
    OpNode n;
    n.kind = OpKind::kUnion;
    n.alias = alias;
    n.inputs = std::move(inputs);
    n.schema = schema;
    const OpId id = plan_.add(std::move(n));
    AliasInfo out;
    out.op = id;
    out.schema = schema;
    define_alias(alias, std::move(out));
  }

  void distinct_statement(const std::string& alias) {
    const Token in = expect_ident();
    const AliasInfo info = lookup_alias(in.text);
    OpNode n;
    n.kind = OpKind::kDistinct;
    n.alias = alias;
    n.inputs = {info.op};
    n.schema = info.schema;
    const OpId id = plan_.add(std::move(n));
    AliasInfo out = info;
    out.op = id;
    define_alias(alias, std::move(out));
  }

  void order_statement(const std::string& alias) {
    const Token in = expect_ident();
    const AliasInfo info = lookup_alias(in.text);
    expect_keyword("BY");
    std::vector<SortKey> keys;
    for (;;) {
      SortKey k;
      k.column = parse_column_ref(info);
      if (peek_keyword("ASC")) {
        lex_.take();
      } else if (peek_keyword("DESC")) {
        lex_.take();
        k.ascending = false;
      }
      keys.push_back(k);
      if (peek_symbol(",")) {
        lex_.take();
        continue;
      }
      break;
    }
    OpNode n;
    n.kind = OpKind::kOrder;
    n.alias = alias;
    n.inputs = {info.op};
    n.schema = info.schema;
    n.sort_keys = std::move(keys);
    const OpId id = plan_.add(std::move(n));
    AliasInfo out = info;
    out.op = id;
    define_alias(alias, std::move(out));
  }

  void limit_statement(const std::string& alias) {
    const Token in = expect_ident();
    const AliasInfo info = lookup_alias(in.text);
    const std::int64_t n_rows = expect_long();
    OpNode n;
    n.kind = OpKind::kLimit;
    n.alias = alias;
    n.inputs = {info.op};
    n.schema = info.schema;
    n.limit = n_rows;
    const OpId id = plan_.add(std::move(n));
    AliasInfo out = info;
    out.op = id;
    define_alias(alias, std::move(out));
  }

  /// `SPLIT a INTO b IF <expr>, c IF <expr> [, ...];` — sugar for one
  /// FILTER per branch (Pig semantics: rows may match several branches or
  /// none).
  void split_statement() {
    expect_keyword("SPLIT");
    const Token in = expect_ident();
    const AliasInfo info = lookup_alias(in.text);
    expect_keyword("INTO");
    std::size_t branches = 0;
    for (;;) {
      const Token out = expect_ident();
      expect_keyword("IF");
      ExprPtr pred = parse_expr(info);
      OpNode n;
      n.kind = OpKind::kFilter;
      n.alias = out.text;
      n.inputs = {info.op};
      n.schema = info.schema;
      n.predicate = std::move(pred);
      const OpId id = plan_.add(std::move(n));
      AliasInfo branch = info;
      branch.op = id;
      define_alias(out.text, std::move(branch));
      ++branches;
      if (peek_symbol(",")) {
        lex_.take();
        continue;
      }
      break;
    }
    if (branches < 2) fail("SPLIT needs at least two branches");
    expect_symbol(";");
  }

  /// `s = SAMPLE a 0.1;` — keeps ~10% of rows, chosen by a deterministic
  /// hash of each row so every replica samples identically (a seeded
  /// random sample would break digest comparison, §5.4).
  void sample_statement(const std::string& alias) {
    const Token in = expect_ident();
    const AliasInfo info = lookup_alias(in.text);
    double fraction = 0;
    if (lex_.peek().kind == Tok::kDouble) {
      fraction = lex_.take().double_val;
    } else if (lex_.peek().kind == Tok::kLong) {
      fraction = static_cast<double>(lex_.take().long_val);
    } else {
      fail("SAMPLE needs a fraction, e.g. SAMPLE a 0.1");
    }
    if (fraction < 0.0 || fraction > 1.0) {
      fail("SAMPLE fraction must be in [0, 1]");
    }
    OpNode n;
    n.kind = OpKind::kFilter;
    n.alias = alias;
    n.inputs = {info.op};
    n.schema = info.schema;
    n.predicate = Expr::binary(
        BinOp::kLt, Expr::row_hash(),
        Expr::literal_of(Value(static_cast<std::int64_t>(fraction * 1e6))));
    const OpId id = plan_.add(std::move(n));
    AliasInfo out = info;
    out.op = id;
    define_alias(alias, std::move(out));
  }

  void store_statement() {
    expect_keyword("STORE");
    const Token in = expect_ident();
    const AliasInfo info = lookup_alias(in.text);
    expect_keyword("INTO");
    const Token path = expect_string();
    expect_symbol(";");
    OpNode n;
    n.kind = OpKind::kStore;
    n.inputs = {info.op};
    n.schema = info.schema;
    n.path = path.text;
    plan_.add(std::move(n));
  }

  // ------------------------------------------------------- expressions --

  /// A column reference: `name`, `a::name`, or `$i`.
  std::size_t parse_column_ref(const AliasInfo& info) {
    if (peek_symbol("$")) {
      lex_.take();
      const std::int64_t i = expect_long();
      if (i < 0 || static_cast<std::size_t>(i) >= info.schema.size()) {
        fail("positional reference out of range: $" + std::to_string(i));
      }
      return static_cast<std::size_t>(i);
    }
    const Token name = expect_ident();
    std::string full = name.text;
    if (peek_symbol("::")) {
      lex_.take();
      full += "::" + expect_ident().text;
    }
    return resolve_column(info, full);
  }

  std::size_t resolve_column(const AliasInfo& info, const std::string& name) {
    if (auto idx = info.schema.index_of(name)) return *idx;
    // Fall back to suffix match for join-qualified fields ("user" matching
    // "a::user") when unambiguous.
    std::optional<std::size_t> found;
    for (std::size_t i = 0; i < info.schema.size(); ++i) {
      const std::string& f = info.schema.at(i).name;
      const auto pos = f.rfind("::");
      if (pos != std::string::npos && f.substr(pos + 2) == name) {
        if (found) fail("ambiguous field: " + name);
        found = i;
      }
    }
    if (found) return *found;
    fail("unknown field: " + name);
  }

  ExprPtr parse_expr(const AliasInfo& info) { return parse_or(info); }

  ExprPtr parse_or(const AliasInfo& info) {
    ExprPtr e = parse_and(info);
    while (peek_keyword("OR")) {
      lex_.take();
      e = Expr::binary(BinOp::kOr, e, parse_and(info));
    }
    return e;
  }

  ExprPtr parse_and(const AliasInfo& info) {
    ExprPtr e = parse_not(info);
    while (peek_keyword("AND")) {
      lex_.take();
      e = Expr::binary(BinOp::kAnd, e, parse_not(info));
    }
    return e;
  }

  ExprPtr parse_not(const AliasInfo& info) {
    if (peek_keyword("NOT")) {
      lex_.take();
      return Expr::unary(UnOp::kNot, parse_not(info));
    }
    return parse_comparison(info);
  }

  ExprPtr parse_comparison(const AliasInfo& info) {
    ExprPtr e = parse_additive(info);
    if (peek_keyword("IS")) {
      lex_.take();
      bool negated = false;
      if (peek_keyword("NOT")) {
        lex_.take();
        negated = true;
      }
      expect_keyword("NULL");
      return Expr::is_null(e, negated);
    }
    static const std::pair<const char*, BinOp> kOps[] = {
        {"==", BinOp::kEq}, {"!=", BinOp::kNe}, {"<=", BinOp::kLe},
        {">=", BinOp::kGe}, {"<", BinOp::kLt},  {">", BinOp::kGt}};
    for (const auto& [sym, op] : kOps) {
      if (peek_symbol(sym)) {
        lex_.take();
        return Expr::binary(op, e, parse_additive(info));
      }
    }
    return e;
  }

  ExprPtr parse_additive(const AliasInfo& info) {
    ExprPtr e = parse_multiplicative(info);
    for (;;) {
      if (peek_symbol("+")) {
        lex_.take();
        e = Expr::binary(BinOp::kAdd, e, parse_multiplicative(info));
      } else if (peek_symbol("-")) {
        lex_.take();
        e = Expr::binary(BinOp::kSub, e, parse_multiplicative(info));
      } else {
        return e;
      }
    }
  }

  ExprPtr parse_multiplicative(const AliasInfo& info) {
    ExprPtr e = parse_unary(info);
    for (;;) {
      if (peek_symbol("*")) {
        lex_.take();
        e = Expr::binary(BinOp::kMul, e, parse_unary(info));
      } else if (peek_symbol("/")) {
        lex_.take();
        e = Expr::binary(BinOp::kDiv, e, parse_unary(info));
      } else if (peek_symbol("%")) {
        lex_.take();
        e = Expr::binary(BinOp::kMod, e, parse_unary(info));
      } else {
        return e;
      }
    }
  }

  ExprPtr parse_unary(const AliasInfo& info) {
    if (peek_symbol("-")) {
      lex_.take();
      return Expr::unary(UnOp::kNeg, parse_unary(info));
    }
    return parse_primary(info);
  }

  ExprPtr parse_primary(const AliasInfo& info) {
    const Token& t = lex_.peek();
    switch (t.kind) {
      case Tok::kLong: {
        const Token tok = lex_.take();
        return Expr::literal_of(Value(tok.long_val));
      }
      case Tok::kDouble: {
        const Token tok = lex_.take();
        return Expr::literal_of(Value(tok.double_val));
      }
      case Tok::kString: {
        const Token tok = lex_.take();
        return Expr::literal_of(Value(tok.text));
      }
      case Tok::kSymbol:
        if (t.text == "(") {
          lex_.take();
          ExprPtr e = parse_expr(info);
          expect_symbol(")");
          return e;
        }
        if (t.text == "$") {
          const std::size_t idx = parse_column_ref(info);
          return Expr::column_ref(idx, "$" + std::to_string(idx));
        }
        fail("unexpected symbol: " + t.text);
      case Tok::kIdent: {
        const Token name = lex_.take();
        if (peek_symbol("(")) return parse_call(info, name);
        std::string full = name.text;
        if (peek_symbol("::")) {
          lex_.take();
          full += "::" + expect_ident().text;
        }
        const std::size_t idx = resolve_column(info, full);
        return Expr::column_ref(idx, full);
      }
      case Tok::kEnd:
        break;
    }
    fail("unexpected end of input in expression");
  }

  /// Parse an aggregate argument: `bagalias[.field]`, where bagalias is
  /// one of the grouped relation's bag fields.
  std::pair<std::size_t, std::optional<std::size_t>> parse_bag_argument(
      const AliasInfo& info, const std::string& fn_name) {
    const Token bag_name = expect_ident();
    auto it = info.bags.find(bag_name.text);
    if (it == info.bags.end()) {
      std::string names;
      for (const auto& [k, v] : info.bags) names += " '" + k + "'";
      fail("aggregate " + fn_name + " argument must be a bag field:" + names);
    }
    const std::size_t bag_col = *info.schema.index_of(bag_name.text);
    std::optional<std::size_t> inner;
    if (peek_symbol(".")) {
      lex_.take();
      const Token field = expect_ident();
      const auto idx = it->second.index_of(field.text);
      if (!idx) fail("unknown field in bag: " + field.text);
      inner = *idx;
    }
    return {bag_col, inner};
  }

  ExprPtr parse_call(const AliasInfo& info, const Token& name) {
    expect_symbol("(");
    const std::string& fn = name.upper;
    if (fn == "TRUNC") {
      ExprPtr inner = parse_expr(info);
      expect_symbol(")");
      return Expr::trunc(inner);
    }
    AggFunc agg;
    bool builtin = true;
    if (fn == "COUNT") {
      agg = AggFunc::kCount;
    } else if (fn == "SUM") {
      agg = AggFunc::kSum;
    } else if (fn == "AVG") {
      agg = AggFunc::kAvg;
    } else if (fn == "MIN") {
      agg = AggFunc::kMin;
    } else if (fn == "MAX") {
      agg = AggFunc::kMax;
    } else {
      builtin = false;
    }
    if (!builtin) {
      // Fall back to the UDF registry: aggregates first (they use the
      // same alias[.field] argument grammar), then scalars.
      if (const auto* audf = UdfRegistry::instance().find_aggregate(fn)) {
        if (info.bags.empty()) {
          fail("aggregate UDF " + name.text + " outside a grouped relation");
        }
        const auto [bag_col, inner] = parse_bag_argument(info, name.text);
        expect_symbol(")");
        if (audf->needs_column && !inner) {
          fail(name.text + " needs a field, e.g. " + name.text + "(a.x)");
        }
        return Expr::udf_aggregate(fn, bag_col, inner);
      }
      if (const auto* sudf = UdfRegistry::instance().find_scalar(fn)) {
        std::vector<ExprPtr> args;
        if (!peek_symbol(")")) {
          for (;;) {
            args.push_back(parse_expr(info));
            if (peek_symbol(",")) {
              lex_.take();
              continue;
            }
            break;
          }
        }
        expect_symbol(")");
        if (args.size() != sudf->arity) {
          fail(name.text + " expects " + std::to_string(sudf->arity) +
               " argument(s)");
        }
        return Expr::udf_scalar(fn, std::move(args));
      }
      fail("unknown function: " + name.text);
    }
    if (info.bags.empty()) {
      fail("aggregate " + name.text + " outside a grouped relation");
    }
    const auto [bag_col, inner] = parse_bag_argument(info, name.text);
    expect_symbol(")");
    if (agg != AggFunc::kCount && !inner) {
      fail(std::string(clusterbft::dataflow::to_string(agg)) +
           " needs a field, e.g. SUM(a.x)");
    }
    return Expr::aggregate(agg, bag_col, inner);
  }

  // ------------------------------------------------------------ naming --

  static std::string derive_field_name(const Expr& e, std::size_t index) {
    switch (e.kind) {
      case Expr::Kind::kColumn: {
        // Strip a join qualifier for the derived name.
        const auto pos = e.column_name.rfind("::");
        return pos == std::string::npos ? e.column_name
                                        : e.column_name.substr(pos + 2);
      }
      case Expr::Kind::kAggregate: {
        std::string n = to_string(e.agg_func);
        for (char& c : n)
          c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        return n;
      }
      default:
        return "f" + std::to_string(index);
    }
  }

  ValueType gen_result_type(const Expr& e, const AliasInfo& info) {
    if (e.kind == Expr::Kind::kAggregate &&
        (e.agg_func == AggFunc::kSum || e.agg_func == AggFunc::kMin ||
         e.agg_func == AggFunc::kMax)) {
      if (e.inner_column && e.bag_column < info.schema.size()) {
        const std::string& bag_field = info.schema.at(e.bag_column).name;
        auto it = info.bags.find(bag_field);
        if (it != info.bags.end()) {
          return it->second.at(*e.inner_column).type;
        }
      }
      return ValueType::kNull;
    }
    return result_type(e, info.schema);
  }

  Lexer lex_;
  LogicalPlan plan_;
  std::map<std::string, AliasInfo> aliases_;
};

}  // namespace

LogicalPlan parse_script(std::string_view script) {
  Parser p(script);
  return p.parse();
}

}  // namespace clusterbft::dataflow
