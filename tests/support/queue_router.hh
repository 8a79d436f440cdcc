/**
 * @file
 * A sim::NodeRouter that schedules every post on one shared
 * EventQueue, so unit tests can put several NetworkInterfaces on a
 * single queue without building a core::System.
 */

#ifndef SHRIMP_TESTS_SUPPORT_QUEUE_ROUTER_HH
#define SHRIMP_TESTS_SUPPORT_QUEUE_ROUTER_HH

#include <utility>

#include "sim/event_queue.hh"
#include "sim/sharded.hh"

namespace shrimp::test
{

class QueueRouter : public sim::NodeRouter
{
  public:
    explicit QueueRouter(sim::EventQueue &eq) : eq_(eq) {}

    void
    post(NodeId, NodeId, Tick when, const char *name,
         sim::EventCallback fn, sim::EventPriority prio) override
    {
        eq_.schedule(when, name, std::move(fn), prio);
    }

  protected:
    sim::EventQueue &eq_;
};

} // namespace shrimp::test

#endif // SHRIMP_TESTS_SUPPORT_QUEUE_ROUTER_HH
