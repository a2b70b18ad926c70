// hfsh — an interactive HyperFile shell.
//
// A small driving application in the spirit of the paper's Section 6
// ("We are currently working on a simple driving application ... it lets the
// user pose HyperFile style queries that will be forwarded to HyperFile for
// processing"). Single-site store, full query language, snapshots.
//
//   usage: hfsh [script]
//     with a script file: executes its lines;
//     on a terminal: interactive REPL;
//     otherwise (e.g. run from the examples loop): executes a built-in demo.
//
// Commands:
//   demo                       load the built-in sample library
//   load PATH / save PATH      snapshot I/O
//   create SPEC...             new object, e.g.:
//                                create s:Title="My doc" n:Year=1991 k:draft p:Cites=0.3
//                              (s: string, n: number, k: keyword, p: pointer birth.seq,
//                               t: text body)
//   edit ID SPEC...            append tuples to an existing object
//   show ID                    print an object (ID = birth.seq)
//   sets                       list named sets
//   set NAME ID...             bind NAME to the listed objects
//   all NAME                   bind NAME to every stored object
//   stats                      store statistics
//   rewrite QUERY              show the rewriter's output for a query
//   help                       this text
//   quit / exit
//   anything else              parsed and executed as a HyperFile query
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include <random>

#include "dist/client.hpp"
#include "engine/local_engine.hpp"
#include "index/explain.hpp"
#include "net/epoll.hpp"
#include "query/parser.hpp"
#include "query/rewrite.hpp"
#include "store/gc.hpp"
#include "store/set_algebra.hpp"
#include "store/snapshot.hpp"
#include "store/versioning.hpp"

using namespace hyperfile;

namespace {

/// Split a line into tokens, keeping "quoted strings" (quotes stripped,
/// token may contain spaces) intact and attached to a prefix like s:Key=.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  bool in_quotes = false;
  bool have = false;
  for (char c : line) {
    if (c == '"') {
      in_quotes = !in_quotes;
      have = true;
      continue;
    }
    if (!in_quotes && std::isspace(static_cast<unsigned char>(c))) {
      if (have || !cur.empty()) out.push_back(cur);
      cur.clear();
      have = false;
      continue;
    }
    cur += c;
  }
  if (have || !cur.empty()) out.push_back(cur);
  return out;
}

Result<ObjectId> parse_id(const std::string& s) {
  const auto dot = s.find('.');
  if (dot == std::string::npos) {
    return make_error(Errc::kInvalidArgument, "object id must be birth.seq");
  }
  try {
    return ObjectId(static_cast<SiteId>(std::stoul(s.substr(0, dot))),
                    std::stoull(s.substr(dot + 1)));
  } catch (const std::exception&) {
    return make_error(Errc::kInvalidArgument, "bad object id '" + s + "'");
  }
}

/// SPEC -> Tuple. Prefixes: s: string, n: number, k: keyword, p: pointer,
/// t: text. Key=value after the prefix (keyword takes just the word).
Result<Tuple> parse_spec(const std::string& spec) {
  if (spec.size() < 2 || spec[1] != ':') {
    return make_error(Errc::kInvalidArgument,
                      "tuple spec must start with s:/n:/k:/p:/t: — got '" +
                          spec + "'");
  }
  const char kind = spec[0];
  const std::string rest = spec.substr(2);
  if (kind == 'k') {
    if (rest.empty()) return make_error(Errc::kInvalidArgument, "empty keyword");
    return Tuple::keyword(rest);
  }
  const auto eq = rest.find('=');
  if (eq == std::string::npos) {
    return make_error(Errc::kInvalidArgument, "spec needs Key=Value: " + spec);
  }
  const std::string key = rest.substr(0, eq);
  const std::string value = rest.substr(eq + 1);
  switch (kind) {
    case 's':
      return Tuple::string(key, value);
    case 't':
      return Tuple::text(key, value);
    case 'n':
      try {
        return Tuple::number(key, std::stoll(value));
      } catch (const std::exception&) {
        return make_error(Errc::kInvalidArgument, "bad number '" + value + "'");
      }
    case 'p': {
      auto id = parse_id(value);
      if (!id.ok()) return id.error();
      return Tuple::pointer(key, id.value());
    }
    default:
      return make_error(Errc::kInvalidArgument,
                        std::string("unknown spec kind '") + kind + "'");
  }
}

class Shell {
 public:
  Shell() : store_(0), engine_(store_) {}

  /// Executes one line; returns false on quit.
  bool execute(const std::string& line);

  void load_demo();

 private:
  void cmd_create(const std::vector<std::string>& args);
  void cmd_edit(const std::vector<std::string>& args);
  void cmd_show(const std::vector<std::string>& args);
  void cmd_set(const std::vector<std::string>& args);
  void cmd_connect(const std::vector<std::string>& args);
  void run_query(const std::string& text);

  SiteStore store_;
  LocalEngine engine_;
  /// When connected to a hyperfiled deployment, queries go remote.
  std::unique_ptr<Client> remote_;
};

void Shell::load_demo() {
  ObjectId codd = store_.allocate();
  ObjectId system_r = store_.allocate();
  ObjectId rstar = store_.allocate();
  ObjectId hyperfile = store_.allocate();
  store_.put(Object(codd, {Tuple::string("Title", "A Relational Model of Data"),
                           Tuple::string("Author", "Codd"),
                           Tuple::number("Year", 1970),
                           Tuple::keyword("database"),
                           Tuple::pointer("Cites", codd)}));
  store_.put(Object(system_r, {Tuple::string("Title", "System R: An Overview"),
                               Tuple::string("Author", "Astrahan"),
                               Tuple::number("Year", 1976),
                               Tuple::keyword("database"),
                               Tuple::pointer("Cites", codd)}));
  store_.put(Object(rstar, {Tuple::string("Title", "R*: An Overview"),
                            Tuple::string("Author", "Williams"),
                            Tuple::number("Year", 1981),
                            Tuple::keyword("distributed"),
                            Tuple::pointer("Cites", system_r),
                            Tuple::pointer("Cites", codd)}));
  store_.put(Object(hyperfile,
                    {Tuple::string("Title", "HyperFile filtering queries"),
                     Tuple::string("Author", "Clifton"),
                     Tuple::number("Year", 1991),
                     Tuple::keyword("distributed"),
                     Tuple::keyword("hypertext"),
                     Tuple::pointer("Cites", rstar),
                     Tuple::pointer("Cites", codd)}));
  std::vector<ObjectId> s = {hyperfile};
  store_.create_set("S", s);
  std::printf("demo library loaded: 4 papers, set S = {%s}\n",
              hyperfile.to_string().c_str());
}

void Shell::cmd_create(const std::vector<std::string>& args) {
  Object obj(store_.allocate());
  for (std::size_t i = 1; i < args.size(); ++i) {
    auto t = parse_spec(args[i]);
    if (!t.ok()) {
      std::printf("error: %s\n", t.error().to_string().c_str());
      return;
    }
    obj.add(std::move(t).value());
  }
  const ObjectId id = store_.put(std::move(obj));
  std::printf("created %s\n", id.to_string().c_str());
}

void Shell::cmd_edit(const std::vector<std::string>& args) {
  if (args.size() < 3) {
    std::printf("usage: edit ID SPEC...\n");
    return;
  }
  auto id = parse_id(args[1]);
  if (!id.ok()) {
    std::printf("error: %s\n", id.error().to_string().c_str());
    return;
  }
  for (std::size_t i = 2; i < args.size(); ++i) {
    auto t = parse_spec(args[i]);
    if (!t.ok()) {
      std::printf("error: %s\n", t.error().to_string().c_str());
      return;
    }
    if (auto r = store_.add_tuple(id.value(), std::move(t).value()); !r.ok()) {
      std::printf("error: %s\n", r.error().to_string().c_str());
      return;
    }
  }
  std::printf("edited %s\n", id.value().to_string().c_str());
}

void Shell::cmd_show(const std::vector<std::string>& args) {
  if (args.size() != 2) {
    std::printf("usage: show ID\n");
    return;
  }
  auto id = parse_id(args[1]);
  if (!id.ok()) {
    std::printf("error: %s\n", id.error().to_string().c_str());
    return;
  }
  const Object* obj = store_.get(id.value());
  if (obj == nullptr) {
    std::printf("no object %s\n", id.value().to_string().c_str());
    return;
  }
  std::printf("%s\n", obj->to_string().c_str());
}

void Shell::cmd_set(const std::vector<std::string>& args) {
  if (args.size() < 2) {
    std::printf("usage: set NAME ID...\n");
    return;
  }
  std::vector<ObjectId> members;
  for (std::size_t i = 2; i < args.size(); ++i) {
    auto id = parse_id(args[i]);
    if (!id.ok()) {
      std::printf("error: %s\n", id.error().to_string().c_str());
      return;
    }
    members.push_back(id.value());
  }
  store_.create_set(args[1], members);
  std::printf("set %s = %zu members\n", args[1].c_str(), members.size());
}

void Shell::cmd_connect(const std::vector<std::string>& args) {
  if (args.size() < 2) {
    std::printf("usage: connect CONFIG [SITE]   (disconnect: back to local)\n");
    return;
  }
  std::ifstream file(args[1]);
  if (!file) {
    std::printf("cannot open config %s\n", args[1].c_str());
    return;
  }
  std::vector<TcpPeer> peers;
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    TcpPeer peer;
    int port = 0;
    if (is >> peer.host >> port) {
      peer.port = static_cast<std::uint16_t>(port);
      peers.push_back(std::move(peer));
    }
  }
  if (peers.empty()) {
    std::printf("empty config\n");
    return;
  }
  const SiteId at =
      args.size() >= 3 ? static_cast<SiteId>(std::stoul(args[2])) : 0;
  std::random_device rd;
  auto net = EpollNetwork::create(1'000'000 + (rd() % 1'000'000), peers);
  if (!net.ok()) {
    std::printf("connect failed: %s\n", net.error().to_string().c_str());
    return;
  }
  remote_ = std::make_unique<Client>(std::move(net).value(), at);
  std::printf("connected: %zu sites, originating at site %u "
              "(queries now run remotely; data commands stay local)\n",
              peers.size(), at);
}

void Shell::run_query(const std::string& text) {
  auto q = parse_query(text);
  if (!q.ok()) {
    std::printf("parse error: %s\n", q.error().to_string().c_str());
    return;
  }
  if (remote_ != nullptr) {
    auto r = remote_->run(q.value(), Duration(30'000'000));
    if (!r.ok()) {
      std::printf("query error: %s\n", r.error().to_string().c_str());
      return;
    }
    const auto& res = r.value();
    if (res.count_only) {
      std::printf("%llu matching objects (left distributed)\n",
                  static_cast<unsigned long long>(res.total_count));
      return;
    }
    std::printf("%zu result(s)\n", res.ids.size());
    for (const ObjectId& id : res.ids) {
      std::printf("  %s\n", id.to_string().c_str());
    }
    for (const auto& v : res.values) {
      std::printf("  %s = %s\n", res.slot_names[v.slot].c_str(),
                  v.value.to_string().c_str());
    }
    return;
  }
  auto r = engine_.run(q.value());
  if (!r.ok()) {
    std::printf("query error: %s\n", r.error().to_string().c_str());
    return;
  }
  const auto& res = r.value();
  std::printf("%zu result(s)", res.ids.size());
  if (!q.value().result_set_name().empty()) {
    std::printf("  -> bound to %s", q.value().result_set_name().c_str());
  }
  std::printf("\n");
  for (const ObjectId& id : res.ids) {
    const Object* obj = store_.get(id);
    const Tuple* title = obj != nullptr ? obj->find("string", "Title") : nullptr;
    std::printf("  %-12s %s\n", id.to_string().c_str(),
                title != nullptr ? title->data.as_string().c_str() : "");
  }
  for (const auto& v : res.values) {
    std::printf("  %s = %s\n", res.slot_names[v.slot].c_str(),
                v.value.to_string().c_str());
  }
}

bool Shell::execute(const std::string& line) {
  const auto args = tokenize(line);
  if (args.empty() || args[0][0] == '#') return true;
  const std::string& cmd = args[0];

  if (cmd == "quit" || cmd == "exit") return false;
  if (cmd == "help") {
    std::printf("%s",
                "commands: demo | load P | save P | create SPEC... | edit ID "
                "SPEC... |\n  show ID | sets | set NAME ID... | all NAME | "
                "stats | gc |\n  checkpoint ID SPEC... | history ID | "
                "rewrite Q | explain Q |\n  union/intersect/diff OUT A B | "
                "connect CONFIG [SITE] | disconnect | quit\nanything else "
                "runs as a "
                "query, e.g.:\n  S [ (pointer, \"Cites\", ?X) | ^^X ]* "
                "(keyword, \"database\", ?) -> T\n");
    return true;
  }
  if (cmd == "demo") {
    load_demo();
    return true;
  }
  if (cmd == "load" && args.size() == 2) {
    auto s = load_snapshot(args[1]);
    if (!s.ok()) {
      std::printf("error: %s\n", s.error().to_string().c_str());
    } else {
      store_ = std::move(s).value();
      std::printf("loaded %zu objects\n", store_.size());
    }
    return true;
  }
  if (cmd == "save" && args.size() == 2) {
    auto r = save_snapshot(store_, args[1]);
    std::printf("%s\n", r.ok() ? "saved" : r.error().to_string().c_str());
    return true;
  }
  if (cmd == "create") {
    cmd_create(args);
    return true;
  }
  if (cmd == "edit") {
    cmd_edit(args);
    return true;
  }
  if (cmd == "show") {
    cmd_show(args);
    return true;
  }
  if (cmd == "sets") {
    for (const auto& name : store_.set_names()) {
      auto members = store_.set_members(name);
      std::printf("  %-16s %zu members\n", name.c_str(),
                  members.ok() ? members.value().size() : 0);
    }
    return true;
  }
  if (cmd == "set") {
    cmd_set(args);
    return true;
  }
  if (cmd == "all" && args.size() == 2) {
    store_.create_set(args[1], store_.all_ids());
    std::printf("set %s = all %zu objects\n", args[1].c_str(), store_.size());
    return true;
  }
  if (cmd == "stats") {
    auto s = store_.stats();
    std::printf("objects %zu, tuples %zu, bytes %zu, sets %zu\n", s.objects,
                s.tuples, s.bytes, s.named_sets);
    return true;
  }
  if (cmd == "rewrite") {
    const std::string text = line.substr(line.find("rewrite") + 7);
    auto q = parse_query(text);
    if (!q.ok()) {
      std::printf("parse error: %s\n", q.error().to_string().c_str());
      return true;
    }
    RewriteStats stats;
    Query r = rewrite_query(q.value(), &stats);
    std::printf("%s\n(%u simplifications)\n", r.to_string().c_str(),
                stats.total());
    return true;
  }
  if (cmd == "explain") {
    const std::string text = line.substr(line.find("explain") + 7);
    auto q = parse_query(text);
    if (!q.ok()) {
      std::printf("parse error: %s\n", q.error().to_string().c_str());
      return true;
    }
    std::printf("%s", index::explain_query(q.value()).to_string().c_str());
    return true;
  }
  if ((cmd == "union" || cmd == "intersect" || cmd == "diff") &&
      args.size() == 4) {
    Result<ObjectId> r =
        cmd == "union"       ? set_union(store_, args[1], args[2], args[3])
        : cmd == "intersect" ? set_intersect(store_, args[1], args[2], args[3])
                             : set_difference(store_, args[1], args[2], args[3]);
    if (!r.ok()) {
      std::printf("error: %s\n", r.error().to_string().c_str());
    } else {
      auto members = store_.set_members(args[1]);
      std::printf("set %s = %zu members\n", args[1].c_str(),
                  members.ok() ? members.value().size() : 0);
    }
    return true;
  }
  if (cmd == "connect") {
    cmd_connect(args);
    return true;
  }
  if (cmd == "disconnect") {
    remote_.reset();
    std::printf("local mode\n");
    return true;
  }
  if (cmd == "gc") {
    GcReport report = collect_garbage(store_);
    std::printf("gc: %zu live, %zu collected, %zu bytes reclaimed\n",
                report.live, report.collected, report.bytes_reclaimed);
    return true;
  }
  if (cmd == "checkpoint") {
    if (args.size() < 2) {
      std::printf("usage: checkpoint ID [SPEC...]  (archives the current "
                  "state, then applies the SPEC tuples)\n");
      return true;
    }
    auto id = parse_id(args[1]);
    if (!id.ok()) {
      std::printf("error: %s\n", id.error().to_string().c_str());
      return true;
    }
    std::vector<Tuple> additions;
    for (std::size_t i = 2; i < args.size(); ++i) {
      auto t = parse_spec(args[i]);
      if (!t.ok()) {
        std::printf("error: %s\n", t.error().to_string().c_str());
        return true;
      }
      additions.push_back(std::move(t).value());
    }
    auto archive = checkpoint_version(store_, id.value(), [&](Object& obj) {
      for (Tuple& t : additions) obj.add(std::move(t));
    });
    if (!archive.ok()) {
      std::printf("error: %s\n", archive.error().to_string().c_str());
    } else {
      std::printf("archived as %s\n", archive.value().to_string().c_str());
    }
    return true;
  }
  if (cmd == "history" && args.size() == 2) {
    auto id = parse_id(args[1]);
    if (!id.ok()) {
      std::printf("error: %s\n", id.error().to_string().c_str());
      return true;
    }
    auto chain = version_history(store_, id.value());
    for (std::size_t i = 0; i < chain.size(); ++i) {
      const Object* obj = store_.get(chain[i]);
      const Tuple* title = obj != nullptr ? obj->find("string", "Title") : nullptr;
      std::printf("  %s %-12s %s\n", i == 0 ? "live   " : "archive",
                  chain[i].to_string().c_str(),
                  title != nullptr ? title->data.as_string().c_str() : "");
    }
    return true;
  }
  run_query(line);
  return true;
}

const char* kDemoScript[] = {
    "demo",
    "sets",
    R"(S [ (pointer, "Cites", ?X) | ^^X ]* (keyword, "database", ?) (string, "Title", ->t) -> DB)",
    R"(S [ (pointer, "Cites", ?X) | ^^X ]* (number, "Year", [1970..1979]) -> Seventies)",
    "create s:Title=\"My reading notes\" n:Year=2026 k:notes p:Cites=0.4",
    "show 0.8",
    "edit 0.8 k:draft",
    "show 0.8",
    "all Everything",
    R"(Everything (keyword, "draft", ?) -> Drafts)",
    "rewrite S (keyword, \"k\", ?) (keyword, \"k\", ?) (?, ?, ?) -> T",
    "explain S [ (pointer, \"Cites\", ?X) | ^^X ]* (keyword, \"database\", ?) -> T",
    "checkpoint 0.8 s:Title=\"My reading notes, revised\"",
    "history 0.8",
    "stats",
    "gc",
    "stats",
};

}  // namespace

int main(int argc, char** argv) {
  Shell shell;

  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::printf("cannot open script %s\n", argv[1]);
      return 1;
    }
    std::string line;
    while (std::getline(file, line)) {
      if (!shell.execute(line)) break;
    }
    return 0;
  }

  if (!isatty(STDIN_FILENO)) {
    std::printf("hfsh (no terminal; running the built-in demo — pipe a script "
                "or run interactively for more)\n\n");
    for (const char* line : kDemoScript) {
      std::printf("hf> %s\n", line);
      shell.execute(line);
    }
    return 0;
  }

  std::printf("hfsh — HyperFile shell. 'help' for commands, 'demo' for data.\n");
  std::string line;
  for (;;) {
    std::printf("hf> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (!shell.execute(line)) break;
  }
  return 0;
}
