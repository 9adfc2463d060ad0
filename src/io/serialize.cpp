#include "gapsched/io/serialize.hpp"

#include <algorithm>
#include <sstream>

#include "gapsched/io/json.hpp"
#include "gapsched/util/flags.hpp"

namespace gapsched {

namespace {

/// Sets *error when the caller asked for it; converts to any empty optional.
std::nullopt_t fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return std::nullopt;
}

// Reads the next non-comment, non-blank line.
bool next_line(std::istream& is, std::string* line) {
  while (std::getline(is, *line)) {
    line->resize(std::min(line->find('#'), line->size()));  // drop comments
    if (line->find_first_not_of(" \t\n\v\f\r") != std::string::npos) {
      return true;
    }
  }
  return false;
}

/// Reads the next whitespace-separated field of `ls` whole as a number
/// (parse_number), so "1x" is no 1. False when it is missing or not one.
template <typename T>
bool field(std::istream& ls, T* out) {
  std::string token;
  return static_cast<bool>(ls >> token) && read_value(token, out);
}

/// True when `ls` holds no further field.
bool ended(std::istream& ls) { return (ls >> std::ws).eof(); }

}  // namespace

void write_instance(std::ostream& os, const Instance& inst) {
  os << "gapsched-instance v1\n";
  os << "processors " << inst.processors << "\n";
  os << "jobs " << inst.n() << "\n";
  for (const Job& j : inst.jobs) {
    os << "job " << j.allowed.interval_count();
    for (const Interval& iv : j.allowed.intervals()) {
      os << ' ' << iv.lo << ' ' << iv.hi;
    }
    os << "\n";
  }
}

std::string instance_to_string(const Instance& inst) {
  std::ostringstream os;
  write_instance(os, inst);
  return os.str();
}

std::optional<Instance> read_instance(std::istream& is, std::string* error) {
  std::string line;
  if (!next_line(is, &line) || line != "gapsched-instance v1") {
    return fail(error, "missing gapsched-instance v1 header");
  }
  Instance inst;
  std::size_t n = 0;
  {
    std::string kw;
    if (!next_line(is, &line)) return fail(error, "missing processors line");
    std::istringstream ls(line);
    if (!(ls >> kw) || !field(ls, &inst.processors) || kw != "processors" ||
        inst.processors < 1 || !ended(ls)) {
      return fail(error, "bad processors line: " + line);
    }
    if (!next_line(is, &line)) return fail(error, "missing jobs line");
    std::istringstream ls2(line);
    if (!(ls2 >> kw) || !field(ls2, &n) || kw != "jobs" ||
        n > io::kMaxJobs || !ended(ls2)) {
      return fail(error, "bad jobs line: " + line);
    }
  }
  inst.jobs.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    if (!next_line(is, &line)) {
      return fail(error, "missing job line " + std::to_string(j));
    }
    std::istringstream ls(line);
    std::string kw;
    std::size_t k = 0;
    if (!(ls >> kw) || !field(ls, &k) || kw != "job" || k == 0) {
      return fail(error, "bad job line: " + line);
    }
    // A one-interval job is read into `first` and never allocates; from
    // the second interval on, `all` holds every interval.
    Interval first;
    std::vector<Interval> all;
    for (std::size_t i = 0; i < k; ++i) {
      Interval iv;
      if (!field(ls, &iv.lo) || !field(ls, &iv.hi) || iv.empty()) {
        return fail(error, "bad interval in job line: " + line);
      }
      if (!in_time_range(iv)) {
        return fail(error, std::string(kTimeRangeError) +
                               " in job line: " + line);
      }
      if (i == 0) {
        first = iv;
        continue;
      }
      if (i == 1) {
        // Each interval takes at least four bytes (" 0 3") of the line.
        all.reserve(std::min(k, line.size() / 4));
        all.push_back(first);
      }
      all.push_back(iv);
    }
    if (!ended(ls)) {
      return fail(error, "more intervals than the count in job line: " + line);
    }
    inst.jobs.push_back(
        Job{all.empty() ? TimeSet(first) : TimeSet(std::move(all))});
  }
  return inst;
}

std::optional<Instance> instance_from_string(const std::string& text,
                                             std::string* error) {
  std::istringstream is(text);
  return read_instance(is, error);
}

void write_schedule(std::ostream& os, const Schedule& s) {
  os << "gapsched-schedule v1\n";
  os << "jobs " << s.size() << "\n";
  for (std::size_t j = 0; j < s.size(); ++j) {
    if (!s.is_scheduled(j)) continue;
    os << "slot " << j << ' ' << s.at(j)->time << ' ';
    if (s.at(j)->processor == Placement::kUnassigned) {
      os << "-";
    } else {
      os << s.at(j)->processor;
    }
    os << "\n";
  }
}

std::optional<Schedule> read_schedule(std::istream& is, std::string* error) {
  std::string line;
  if (!next_line(is, &line) || line != "gapsched-schedule v1") {
    return fail(error, "missing gapsched-schedule v1 header");
  }
  if (!next_line(is, &line)) return fail(error, "missing jobs line");
  std::size_t n = 0;
  {
    std::istringstream ls(line);
    std::string kw;
    if (!(ls >> kw) || !field(ls, &n) || kw != "jobs" || n > io::kMaxJobs ||
        !ended(ls)) {
      return fail(error, "bad jobs line: " + line);
    }
  }
  Schedule s(n);
  while (next_line(is, &line)) {
    std::istringstream ls(line);
    std::string kw, proc;
    std::size_t j = 0;
    Time t = 0;
    if (!(ls >> kw) || !field(ls, &j) || !field(ls, &t) || !(ls >> proc) ||
        kw != "slot" || j >= n || !ended(ls)) {
      return fail(error, "bad slot line: " + line);
    }
    int p = Placement::kUnassigned;
    if (proc != "-" && !read_value(proc, &p)) {
      return fail(error, "bad processor in slot line: " + line);
    }
    s.place(j, t, p);
  }
  return s;
}

}  // namespace gapsched
