#include "check.hpp"

#include "util/json.hpp"

namespace perfbench {
namespace {

constexpr double kRatioSlack = 1e-9;
constexpr std::size_t kMaxExamples = 5;

}  // namespace

void Checker::fail(const std::string& code, const std::string& example,
                   std::int64_t count) {
  failed_ += count;
  by_code_[code] += count;
  if (examples_.size() < kMaxExamples)
    examples_.push_back(code + ": " + example);
}

void Checker::check(const Request& request, const std::string& response,
                    bool digest, bool timed) {
  ++attempted_;
  if (digest) digest_.add(strip_id(response));
  const auto parsed = msrs::json_parse(response);
  if (!parsed || !parsed->is_object())
    return fail("unparsable_response", response);
  const msrs::Json& body = *parsed;
  const msrs::Json* id = body.find("id");
  if (id == nullptr || !id->is_number() ||
      id->as_number() != static_cast<double>(request.id))
    return fail("id_mismatch", "sent id " + std::to_string(request.id) +
                                   ", got " + response);
  const msrs::Json* ok = body.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
    const msrs::Json* error = body.find("error");
    return fail(error != nullptr && error->is_string() ? error->as_string()
                                                       : "not_ok",
                response);
  }
  if (request.kind == Kind::kMutation && request.expect_job >= 0) {
    const msrs::Json* job = body.find("job");
    if (job == nullptr || !job->is_number() ||
        job->as_number() != static_cast<double>(request.expect_job))
      return fail("job_id_mismatch", response);
  }
  if (!answer_bearing(request.kind)) return;
  const msrs::Json* valid = body.find("valid");
  if (valid == nullptr || !valid->is_bool() || !valid->as_bool())
    return fail("invalid_schedule", response);
  const msrs::Json* ratio = body.find("ratio");
  if (ratio == nullptr || !ratio->is_number() ||
      ratio->as_number() < 1.0 - kRatioSlack ||
      ratio->as_number() > kMaxRatio + kRatioSlack)
    return fail("ratio_out_of_bound", response);
  if (request.kind == Kind::kSnapshot) {
    ++snapshots_;
    const msrs::Json* source = body.find("source");
    if (source != nullptr && source->is_string() &&
        source->as_string() == "repair")
      ++repairs_;
  }
  if (request.key >= 0) {
    const auto [it, first] =
        warm_bodies_.emplace(request.key, std::string(strip_id(response)));
    if (!first && it->second != strip_id(response))
      return fail("cache_inconsistent", response);
  }
  if (timed) {
    ratio_sum_ += ratio->as_number();
    ++ratios_;
  }
}

}  // namespace perfbench
