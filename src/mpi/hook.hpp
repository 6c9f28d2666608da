// The runtime's view of the co-scheduler: the "control pipe" protocol of §4.
// When a task calls MPI_Init its PID flows through the pmd to the node's
// co-scheduler (register_task); the prototype library's escape API maps to
// detach/attach. The MPI layer depends only on this interface; the actual
// co-scheduler lives in core/.
#pragma once

#include "kern/kernel.hpp"

namespace pasched::mpi {

class SchedulerHook {
 public:
  virtual ~SchedulerHook() = default;
  /// Sets up the node's side of the hook before its first registration.
  /// Called once per task-hosting node, in node order, from a quiesced
  /// context: setup may draw from state shared across nodes, while
  /// register_task and the rest touch only their node.
  virtual void prepare_node(kern::NodeId /*node*/) {}
  /// MPI_Init-time registration of a task's thread on its node.
  virtual void register_task(kern::NodeId node, kern::Thread& t) = 0;
  /// Task asks to stop being favored (entering an I/O phase).
  virtual void detach_task(kern::NodeId node, kern::Thread& t) = 0;
  /// Task re-joins co-scheduling.
  virtual void attach_task(kern::NodeId node, kern::Thread& t) = 0;
  /// All tasks of the job exited; co-schedulers shut down.
  virtual void job_ended() = 0;
};

}  // namespace pasched::mpi
