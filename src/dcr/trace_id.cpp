#include "dcr/trace_id.hpp"

#include <algorithm>

namespace dcr::core {

namespace {

// One raw CRC32C step (init 0, no pre/post inversion — the linear form, so
// window fingerprints compose under the shift/xor algebra below).
inline std::uint32_t crc_step(std::uint32_t s, std::uint8_t b) {
  return (s >> 8) ^ detail::kCrc32cTable[(s ^ b) & 0xFFu];
}

// Feed one zero byte: advances the CRC register without new input.
inline std::uint32_t crc_zero_step(std::uint32_t s) {
  return (s >> 8) ^ detail::kCrc32cTable[s & 0xFFu];
}

// Raw CRC of one token's 4 little-endian bytes, from state 0.
inline std::uint32_t crc_token(std::uint32_t tok) {
  std::uint32_t s = 0;
  for (int i = 0; i < 4; ++i) s = crc_step(s, static_cast<std::uint8_t>(tok >> (8 * i)));
  return s;
}

}  // namespace

void TraceIdentifier::configure(const TraceIdConfig& cfg) {
  cfg_ = cfg;
  cfg_.min_period = std::max<std::uint64_t>(1, cfg_.min_period);
  cfg_.max_period = std::max(cfg_.max_period, cfg_.min_period);
  cfg_.probe = std::max<std::uint64_t>(2, cfg_.probe);
  cfg_.promote_periods = std::max<std::uint64_t>(1, cfg_.promote_periods);
  cfg_.demote_strikes = std::max<std::uint64_t>(1, cfg_.demote_strikes);
  ring_.assign(cfg_.max_period + cfg_.probe, 0);
  // Z^{4(probe-1)}: CRC is GF(2)-linear, so shifting a state S past k zero
  // bytes decomposes by bytes of S: Z^k(S) = xor_j Tbl[j][byte_j(S)].  By the
  // same linearity each table entry is the xor of its single-bit entries, so
  // only those 32 are computed by actually feeding the zero bytes — feeding
  // them for every entry would dominate runtime set-up at 1000+ shards.
  const std::uint64_t zeros = 4 * (cfg_.probe - 1);
  for (std::size_t j = 0; j < 4; ++j) {
    std::array<std::uint32_t, 256>& tbl = shift_out_[j];
    tbl[0] = 0;
    for (std::uint32_t v = 1; v < 256; ++v) {
      const std::uint32_t low = v & (0u - v);  // lowest set bit of v
      if (v != low) {
        tbl[v] = tbl[v ^ low] ^ tbl[low];
        continue;
      }
      std::uint32_t s = v << (8 * j);
      for (std::uint64_t k = 0; k < zeros; ++k) s = crc_zero_step(s);
      tbl[v] = s;
    }
  }
  reset();
}

void TraceIdentifier::reset() {
  state_ = State::Scanning;
  pos_ = 0;
  fp_ = 0;
  table_.clear();
  period_ = 0;
  match_run_ = 0;
  trace_ = TraceId::invalid();
  in_window_ = false;
  calls_in_window_ = 0;
  strikes_ = 0;
  resume_run_ = 0;
  mismatch_run_ = 0;
}

std::uint32_t TraceIdentifier::signature_token(const Hash128& sig) {
  unsigned char buf[16];
  std::memcpy(buf, &sig.lo, 8);
  std::memcpy(buf + 8, &sig.hi, 8);
  return crc32c(buf, sizeof(buf));
}

std::uint32_t TraceIdentifier::window_fingerprint(const std::uint32_t* tokens,
                                                  std::size_t n) {
  std::uint32_t s = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (int b = 0; b < 4; ++b) {
      s = crc_step(s, static_cast<std::uint8_t>(tokens[i] >> (8 * b)));
    }
  }
  return s;
}

std::uint32_t TraceIdentifier::table_key() const {
  if (cfg_.fp_mask_bits == 0 || cfg_.fp_mask_bits >= 32) return fp_;
  return fp_ & ((1u << cfg_.fp_mask_bits) - 1u);
}

// Ring + rolling fingerprint upkeep; runs identically in every state so the
// scanner has fresh history the moment a trace demotes.
void TraceIdentifier::advance(std::uint32_t tok) {
  const std::uint64_t window = std::min<std::uint64_t>(pos_, cfg_.probe);
  if (window == cfg_.probe) {
    // Slide: drop the front token f (at pos_ - probe), append tok.
    //   fp' = Z^4( fp ^ Z^{4(probe-1)}(F(f)) ) ^ F(tok)
    const std::uint32_t front = crc_token(ring_at(pos_ - cfg_.probe));
    std::uint32_t shifted = 0;
    for (int j = 0; j < 4; ++j) {
      shifted ^= shift_out_[static_cast<std::size_t>(j)][(front >> (8 * j)) & 0xFFu];
    }
    std::uint32_t s = fp_ ^ shifted;
    for (int k = 0; k < 4; ++k) s = crc_zero_step(s);
    fp_ = s ^ crc_token(tok);
  } else {
    // Still filling the first window: plain append.
    std::uint32_t s = fp_;
    for (int k = 0; k < 4; ++k) s = crc_zero_step(s);
    fp_ = s ^ crc_token(tok);
  }
  ring_[pos_ % ring_.size()] = tok;
  pos_++;
}

bool TraceIdentifier::verify_repeat(std::uint64_t d) const {
  // Token-exact comparison of the last probe tokens against the probe tokens
  // ending d earlier; both windows are within the ring by construction
  // (d <= max_period, ring holds max_period + probe).
  for (std::uint64_t i = 0; i < cfg_.probe; ++i) {
    if (ring_at(pos_ - 1 - i) != ring_at(pos_ - 1 - d - i)) return false;
  }
  return true;
}

void TraceIdentifier::arm(std::uint64_t d) {
  state_ = State::Armed;
  period_ = d;
  // The verified probe window gives `probe` consecutive distance-d matches.
  match_run_ = cfg_.probe;
}

TraceId TraceIdentifier::derive_trace_id() const {
  // CRC32C over the last full period of tokens, rotated to a canonical start?
  // No: all shards observe the same stream, so the promotion position — and
  // hence the window phase — is identical everywhere; hashing the last
  // `period_` tokens as-is is deterministic.  The high bit marks auto ids so
  // they cannot collide with small app-chosen TraceIds.
  std::uint32_t crc = 0;
  for (std::uint64_t i = period_; i > 0; --i) {
    const std::uint32_t tok = ring_at(pos_ - i);
    crc = crc32c(&tok, sizeof(tok), crc);
  }
  std::uint32_t v = 0x80000000u | (crc & 0x7FFFFFFFu);
  if (v == TraceId::invalid_value()) v = 0x80000000u;
  return TraceId(v);
}

TraceIdentifier::Result TraceIdentifier::promote() {
  trace_ = derive_trace_id();
  counters_.promotions++;
  promotion_log_.emplace_back(pos_ - 1, trace_.value);
  state_ = State::Tracing;
  in_window_ = true;
  calls_in_window_ = 1;  // the current call becomes the window's first op
  strikes_ = 0;
  resume_run_ = 0;
  mismatch_run_ = 0;
  counters_.windows++;
  return {Action::Open, trace_};
}

void TraceIdentifier::demote() {
  counters_.demotions++;
  state_ = State::Scanning;
  period_ = 0;
  match_run_ = 0;
  trace_ = TraceId::invalid();
  in_window_ = false;
  calls_in_window_ = 0;
  strikes_ = 0;
  resume_run_ = 0;
  mismatch_run_ = 0;
}

void TraceIdentifier::interrupt() {
  if (!in_window_) return;
  counters_.aborts++;
  in_window_ = false;
  calls_in_window_ = 0;
  resume_run_ = 0;
  mismatch_run_ = 0;
  // No strike: an explicit window or a flush is not evidence the repeat died.
}

TraceIdentifier::Result TraceIdentifier::observe(const Hash128& sig, bool suppress) {
  const std::uint32_t tok = signature_token(sig);
  advance(tok);

  // `match`: does this call continue the candidate period?  Meaningless in
  // Scanning (period_ == 0).
  const bool match = period_ != 0 && ring_at(pos_ - 1) == ring_at(pos_ - 1 - period_);

  switch (state_) {
    case State::Scanning: {
      if (pos_ < cfg_.probe) return {};
      const std::uint32_t key = table_key();
      const auto it = table_.find(key);
      if (it != table_.end()) {
        const std::uint64_t d = pos_ - 1 - it->second;
        if (d >= cfg_.min_period && d <= cfg_.max_period) {
          if (verify_repeat(d)) {
            counters_.detections++;
            arm(d);
          } else {
            counters_.collisions++;
          }
        }
      }
      table_[key] = pos_ - 1;
      // An armed candidate may already satisfy the promotion threshold (short
      // periods: the probe window spans promote_periods full periods).
      if (state_ == State::Armed &&
          match_run_ >= period_ * cfg_.promote_periods && !suppress) {
        return promote();
      }
      return {};
    }

    case State::Armed: {
      if (!match) {
        // Candidate broken before promotion: back to scanning, no demotion
        // counted (nothing was promoted).
        state_ = State::Scanning;
        period_ = 0;
        match_run_ = 0;
        return {};
      }
      match_run_++;
      if (match_run_ >= period_ * cfg_.promote_periods && !suppress) {
        return promote();
      }
      return {};
    }

    case State::Tracing: {
      if (in_window_) {
        if (calls_in_window_ == period_) {
          // Window boundary: the previous window holds exactly one period.
          if (match) {
            counters_.windows++;
            calls_in_window_ = 1;
            strikes_ = 0;
            return {Action::CloseOpen, trace_};
          }
          // Completed cleanly, but the stream moved on: close and pause.
          in_window_ = false;
          calls_in_window_ = 0;
          strikes_++;
          mismatch_run_ = 1;
          resume_run_ = 0;
          const TraceId t = trace_;
          if (strikes_ >= cfg_.demote_strikes) demote();
          return {Action::Close, t};
        }
        if (match) {
          calls_in_window_++;
          return {};
        }
        // Broke mid-period: the half-recorded window must be discarded.
        counters_.aborts++;
        in_window_ = false;
        calls_in_window_ = 0;
        strikes_++;
        mismatch_run_ = 1;
        resume_run_ = 0;
        const TraceId t = trace_;
        if (strikes_ >= cfg_.demote_strikes) demote();
        return {Action::AbortClose, t};
      }
      // Paused: trace promoted but no window open (strike, interrupt, or
      // suppression).  Matches accumulate toward reopening; sustained
      // mismatches accumulate strikes toward demotion.
      if (match) {
        resume_run_++;
        mismatch_run_ = 0;
        if (resume_run_ >= period_ && !suppress) {
          in_window_ = true;
          calls_in_window_ = 1;
          resume_run_ = 0;
          counters_.windows++;
          return {Action::Open, trace_};
        }
        return {};
      }
      resume_run_ = 0;
      mismatch_run_++;
      if (mismatch_run_ >= period_) {
        mismatch_run_ = 0;
        strikes_++;
        if (strikes_ >= cfg_.demote_strikes) demote();
      }
      return {};
    }
  }
  return {};
}

}  // namespace dcr::core
