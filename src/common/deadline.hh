/**
 * @file
 * Cooperative per-request deadlines.
 *
 * A Deadline is a cheap copyable token threaded through long-running
 * work (the routing trial grid, the lowering fit loops). The work
 * calls check() at its natural iteration boundaries -- a stall step, a
 * block translation, a fit round -- and the call throws DeadlineError
 * once the budget is exhausted or the token was cancelled. The
 * default-constructed token is inactive: check() is a single pointer
 * test, so unconditional call sites cost nothing for requests without
 * a deadline.
 *
 * Cancellation is cooperative on purpose: work is only ever abandoned
 * at boundaries where no shared state is half-mutated, so a timed-out
 * request unwinds cleanly (exec::parallelFor rethrows the first
 * DeadlineError and skips unclaimed indices) and the server thread
 * that ran it stays healthy.
 *
 * Determinism note: a deadline never alters the content of a result --
 * work either completes (bit-identical to an undeadlined run, since
 * the token feeds no randomness) or errors. This is why serve excludes
 * deadlines from its result-cache key.
 */

#ifndef MIRAGE_COMMON_DEADLINE_HH
#define MIRAGE_COMMON_DEADLINE_HH

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

namespace mirage {

/** Thrown by Deadline::check() when the budget is exhausted. */
class DeadlineError : public std::runtime_error
{
  public:
    explicit DeadlineError(const char *where)
        : std::runtime_error(std::string("deadline exceeded at ") + where)
    {}
    /** Relay constructor: an already-formatted message (e.g. rebuilt
     * on another thread from a RelayedError) -- no prefix is added. */
    explicit DeadlineError(const std::string &message)
        : std::runtime_error(message)
    {}
};

class Deadline
{
  public:
    /** Inactive token: active() is false, check() never throws. */
    Deadline() = default;

    /**
     * A token that expires `ms` milliseconds from now. A budget past
     * what the clock can represent saturates at the clock's end of
     * time instead of overflowing the conversion.
     */
    static Deadline
    afterMs(double ms)
    {
        Deadline d;
        d.state_ = std::make_shared<State>();
        const auto now = Clock::now();
        const std::chrono::duration<double, std::milli> budget(ms);
        d.state_->expiry =
            budget < Clock::time_point::max() - now
                ? now + std::chrono::duration_cast<Clock::duration>(budget)
                : Clock::time_point::max();
        return d;
    }

    bool active() const { return state_ != nullptr; }

    bool
    expired() const
    {
        if (!state_)
            return false;
        return state_->cancelled.load(std::memory_order_relaxed) ||
               Clock::now() >= state_->expiry;
    }

    /**
     * Throw DeadlineError when expired or cancelled; `where` names the
     * checkpoint for the diagnostic. No-op on an inactive token.
     */
    void
    check(const char *where) const
    {
        if (state_ && expired())
            throw DeadlineError(where);
    }

    /** Cooperatively cancel every copy of this token. */
    void
    cancel() const
    {
        if (state_)
            state_->cancelled.store(true, std::memory_order_relaxed);
    }

    /** Milliseconds left (+inf when inactive, <= 0 when expired). */
    double
    remainingMs() const
    {
        if (!state_)
            return std::numeric_limits<double>::infinity();
        if (state_->cancelled.load(std::memory_order_relaxed))
            return 0.0;
        return std::chrono::duration<double, std::milli>(
                   state_->expiry - Clock::now())
            .count();
    }

  private:
    using Clock = std::chrono::steady_clock;

    struct State
    {
        Clock::time_point expiry;
        std::atomic<bool> cancelled{false};
    };

    std::shared_ptr<State> state_;
};

} // namespace mirage

#endif // MIRAGE_COMMON_DEADLINE_HH
