#include "core/instance_io.hpp"

#include <limits>
#include <sstream>

namespace msrs {

void write_text(std::ostream& out, const Instance& instance) {
  out << "msrs 1\n";
  out << "machines " << instance.machines() << '\n';
  out << "classes " << instance.num_classes() << '\n';
  for (ClassId c = 0; c < instance.num_classes(); ++c) {
    const auto& jobs = instance.class_jobs(c);
    out << "class " << jobs.size();
    for (JobId j : jobs) out << ' ' << instance.size(j);
    out << '\n';
  }
}

std::string to_text(const Instance& instance) {
  std::ostringstream out;
  write_text(out, instance);
  return out.str();
}

namespace {

// Parses one instance. Returns 1 on success, 0 on clean EOF before the
// header (end of a corpus), -1 on malformed input (*error describes it).
// Consumes nothing past the instance's own tokens, so concatenated
// instances parse by repeated calls.
int read_one(std::istream& in, Instance* out, std::string* error) {
  auto fail = [&](const std::string& message) {
    if (error) *error = message;
    return -1;
  };
  // Echoes the offending token back in the error, so a typo in a keyword is
  // distinguishable from a truncated file.
  auto expect_key = [&](const char* wanted, std::string* got) {
    *got = {};
    if (!(in >> *got)) return false;
    return *got == wanted;
  };

  std::string token;
  if (!expect_key("msrs", &token)) {
    if (token.empty()) return 0;  // clean EOF: no (further) instance
    return fail("bad header: expected 'msrs', got '" + token + "'");
  }
  long long version = 0;
  if (!(in >> version) || version != 1)
    return fail("unsupported format version (expected 1)");

  long long machines = 0;
  if (!expect_key("machines", &token))
    return fail(token.empty()
                    ? "missing 'machines <m>' line"
                    : "expected 'machines', got '" + token + "'");
  if (!(in >> machines)) return fail("machine count is not a number");
  if (machines < 1)
    return fail("machine count must be >= 1, got " + std::to_string(machines));
  if (machines > std::numeric_limits<int>::max())
    return fail("machine count " + std::to_string(machines) +
                " exceeds the supported maximum");

  long long num_classes = 0;
  if (!expect_key("classes", &token))
    return fail(token.empty() ? "missing 'classes <k>' line"
                              : "expected 'classes', got '" + token + "'");
  if (!(in >> num_classes) || num_classes < 0)
    return fail("class count must be a number >= 0");

  Instance instance;
  instance.set_machines(static_cast<int>(machines));
  for (long long c = 0; c < num_classes; ++c) {
    if (!expect_key("class", &token))
      return fail("class " + std::to_string(c) +
                  (token.empty() ? ": missing 'class' line (file declares " +
                                       std::to_string(num_classes) +
                                       " classes)"
                                 : ": expected 'class', got '" + token + "'"));
    long long count = 0;
    if (!(in >> count)) return fail("class " + std::to_string(c) +
                                    ": job count is not a number");
    if (count < 1)
      return fail("class " + std::to_string(c) +
                  (count == 0 ? " is empty (every class needs >= 1 job)"
                              : ": job count must be >= 1, got " +
                                    std::to_string(count)));
    const ClassId cls = instance.add_class();
    for (long long i = 0; i < count; ++i) {
      Time p = 0;
      if (!(in >> p))
        return fail("class " + std::to_string(c) + ": job " +
                    std::to_string(i) + " of " + std::to_string(count) +
                    " is missing or not a number");
      if (p < 1)
        return fail("class " + std::to_string(c) + ": job size " +
                    std::to_string(p) + " < 1");
      if (p > kMaxLoad - instance.class_load(cls))
        return fail("class " + std::to_string(c) +
                    ": load exceeds the supported maximum " +
                    std::to_string(kMaxLoad));
      if (p > kMaxLoad - instance.total_load())
        return fail("total load p(J) exceeds the supported maximum " +
                    std::to_string(kMaxLoad));
      instance.add_job(cls, p);
    }
  }
  const std::string problem = instance.check();
  if (!problem.empty()) return fail(problem);
  *out = std::move(instance);
  return 1;
}

}  // namespace

std::optional<Instance> read_text(std::istream& in, std::string* error) {
  auto fail = [&](const std::string& message) -> std::optional<Instance> {
    if (error) *error = message;
    return std::nullopt;
  };
  Instance instance;
  const int status = read_one(in, &instance, error);
  if (status == 0) return fail("empty input: missing 'msrs 1' header");
  if (status < 0) return std::nullopt;
  std::string token;
  if (in >> token)
    return fail("trailing garbage after " +
                std::to_string(instance.num_classes()) + " classes: '" +
                token + "'");
  return instance;
}

std::optional<std::vector<Instance>> read_corpus(std::istream& in,
                                                 std::string* error) {
  std::vector<Instance> corpus;
  for (;;) {
    Instance instance;
    const int status = read_one(in, &instance, error);
    if (status == 0) return corpus;
    if (status < 0) {
      if (error)
        *error = "corpus instance " + std::to_string(corpus.size()) + ": " +
                 *error;
      return std::nullopt;
    }
    corpus.push_back(std::move(instance));
  }
}

std::optional<Instance> from_text(const std::string& text, std::string* error) {
  std::istringstream in(text);
  return read_text(in, error);
}

}  // namespace msrs
