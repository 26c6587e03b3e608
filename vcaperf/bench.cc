#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.h"

namespace vcaperf {

namespace {

// The span a thread is currently inside (parent of its next span).
thread_local int64_t t_current = -1;

int thread_index() {
  static std::mutex mu;
  static std::map<std::thread::id, int> ids;
  std::lock_guard<std::mutex> lock(mu);
  auto [it, added] = ids.emplace(std::this_thread::get_id(),
                                 static_cast<int>(ids.size()));
  (void)added;
  return it->second;
}

// Length of the union of [s, e) intervals, clipped to [lo, hi).
int64_t covered(std::vector<std::pair<int64_t, int64_t>> iv, int64_t lo,
                int64_t hi) {
  std::sort(iv.begin(), iv.end());
  int64_t total = 0, cur_s = 0, cur_e = 0;
  bool open = false;
  for (auto [s, e] : iv) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (open && s <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) total += cur_e - cur_s;
    cur_s = s;
    cur_e = e;
    open = true;
  }
  if (open) total += cur_e - cur_s;
  return total;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer::Scope::Scope(Tracer* t, const char* name, int64_t parent) : t_(t) {
  if (t_ == nullptr) return;
  saved_current_ = t_current;
  id_ = t_->open(name, parent == kInherit ? t_current : parent, now_ns());
  t_current = id_;
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  t_->close(id_, now_ns());
  t_current = saved_current_;
}

int64_t Tracer::open(const char* name, int64_t parent, int64_t start) {
  int tid = thread_index();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.start_ns = start;
  s.id = static_cast<int64_t>(spans_.size());
  s.parent = parent;
  s.tid = tid;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::close(int64_t id, int64_t end) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = end;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double Tracer::total_ms(const std::string& key) const {
  bool prefix = !key.empty() && key.back() == '.';
  int64_t ns = 0;
  for (const Span& s : spans()) {
    bool match = prefix ? s.name.compare(0, key.size(), key) == 0
                        : s.name == key;
    if (match) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-6;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  std::vector<Span> all = spans();
  int64_t t0 = all.empty() ? 0 : all.front().start_ns;
  for (const Span& s : all) t0 = std::min(t0, s.start_ns);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::string layer = s.name.substr(0, s.name.find('.'));
    os << "{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\""
       << json_escape(layer) << "\",\"ph\":\"X\",\"pid\":" << run_id_
       << ",\"tid\":" << s.tid << ",\"ts\":"
       << static_cast<double>(s.start_ns - t0) * 1e-3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
       << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"run\":" << run_id_ << "}}" << (i + 1 < all.size() ? ",\n" : "\n");
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

std::vector<Tracer::SelfRow> Tracer::self_times(bool by_layer) const {
  std::vector<Span> all = spans();
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(all.size());
  for (const Span& s : all) {
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::map<std::string, SelfRow> rows;
  for (const Span& s : all) {
    std::string key = by_layer ? s.name.substr(0, s.name.find('.')) : s.name;
    SelfRow& r = rows[key];
    r.name = key;
    int64_t dur = s.end_ns - s.start_ns;
    int64_t self =
        dur - covered(kids[static_cast<size_t>(s.id)], s.start_ns, s.end_ns);
    r.calls += 1;
    r.total_ms += static_cast<double>(dur) * 1e-6;
    r.self_ms += static_cast<double>(self) * 1e-6;
  }
  std::vector<SelfRow> out;
  for (auto& [k, r] : rows) out.push_back(r);
  std::sort(out.begin(), out.end(), [](const SelfRow& a, const SelfRow& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

double Tracer::root_union_ms() const {
  std::vector<std::pair<int64_t, int64_t>> roots;
  int64_t lo = INT64_MAX, hi = INT64_MIN;
  for (const Span& s : spans()) {
    if (s.parent >= 0) continue;
    roots.push_back({s.start_ns, s.end_ns});
    lo = std::min(lo, s.start_ns);
    hi = std::max(hi, s.end_ns);
  }
  if (roots.empty()) return 0.0;
  return static_cast<double>(covered(roots, lo, hi)) * 1e-6;
}

void check(Outcome* o, bool ok, const std::string& what) {
  if (!ok) o->failures.push_back(what);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t i = static_cast<size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  double frac = pos - static_cast<double>(i);
  return v[i] + (v[i + 1] - v[i]) * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string to_text(const Outcome& o) {
  std::ostringstream os;
  os.precision(17);
  os << "e2e " << o.e2e_ms << "\nattempted " << o.attempted << "\nfailed "
     << o.failed << "\ndigest " << o.totals.digest << "\n";
  for (const auto& [k, v] : o.totals.values) {
    os << "total " << k << " " << v << "\n";
  }
  for (const Metric& m : o.metrics) {
    os << "metric " << m.name << " " << m.value << "\n";
  }
  for (const std::string& f : o.failures) os << "failure " << f << "\n";
  return os.str();
}

Outcome from_text(const std::string& text) {
  Outcome o;
  std::istringstream is(text);
  std::string key;
  while (is >> key) {
    if (key == "e2e") {
      is >> o.e2e_ms;
    } else if (key == "attempted") {
      is >> o.attempted;
    } else if (key == "failed") {
      is >> o.failed;
    } else if (key == "digest") {
      is >> o.totals.digest;
    } else if (key == "total") {
      std::string name;
      int64_t v = 0;
      is >> name >> v;
      o.totals.values[name] = v;
    } else if (key == "metric") {
      Metric m;
      is >> m.name >> m.value;
      o.metrics.push_back(m);
    } else {
      std::string rest;
      std::getline(is, rest);
      o.failures.push_back(rest.substr(rest.empty() ? 0 : 1));
    }
  }
  return o;
}

namespace {

std::map<std::string, size_t> sample_counts(const Outcome& o) {
  std::map<std::string, size_t> n;
  for (const Metric& m : o.metrics) ++n[m.name];
  return n;
}

}  // namespace

std::vector<Outcome> run_repeats(
    int repeats, const std::string& what,
    const std::function<void(bool first, Outcome* out)>& body, Outcome* o) {
  body(true, o);
  std::vector<Outcome> runs = {*o};
  for (int rep = 1; rep < repeats; ++rep) {
    const std::string name = what + ": repeat " + std::to_string(rep);
    std::optional<std::string> text = run_in_child([&] {
      Outcome c;
      body(false, &c);
      return to_text(c);
    });
    if (!text) {
      o->failures.push_back(name + " did not complete");
      o->attempted += 1;
      o->failed += 1;
      continue;
    }
    Outcome c = from_text(*text);
    check(&c, c.totals == runs.front().totals,
          name + " totals differ from the first run of the same work");
    check(&c, sample_counts(c) == sample_counts(runs.front()),
          name + " has another count of timed pieces than the first run");
    if (!c.failures.empty()) c.failed = std::max<int64_t>(1, c.attempted);
    o->failures.insert(o->failures.end(), c.failures.begin(),
                       c.failures.end());
    o->attempted += c.attempted;
    o->failed += c.failed;
    runs.push_back(std::move(c));
  }
  return runs;
}

std::vector<double> raw_values(const Outcome& o, const std::string& name) {
  std::vector<double> v;
  for (const Metric& m : o.metrics) {
    if (m.name == name) v.push_back(m.value);
  }
  return v;
}

std::vector<std::vector<double>> by_index(const std::vector<Outcome>& runs,
                                          const std::string& name) {
  std::vector<std::vector<double>> out;
  for (const Outcome& r : runs) {
    std::vector<double> v = raw_values(r, name);
    if (out.size() < v.size()) out.resize(v.size());
    for (size_t i = 0; i < v.size(); ++i) out[i].push_back(v[i]);
  }
  return out;
}

std::optional<std::string> run_in_child(
    const std::function<std::string()>& body) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::cout.flush();
  pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      std::string msg = body();
      for (size_t off = 0; off < msg.size();) {
        ssize_t n = write(fds[1], msg.data() + off, msg.size() - off);
        if (n <= 0) break;
        off += static_cast<size_t>(n);
      }
    } catch (const std::exception& e) {
      std::cerr << "vcaperf: child: " << e.what() << "\n";
      code = 1;
    }
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  std::string msg;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) > 0;) {
    msg.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || msg.empty()) {
    return std::nullopt;
  }
  return msg;
}

}  // namespace vcaperf
