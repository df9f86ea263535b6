(** The pool-backed scatter runner (see DESIGN.md §7).

    Installs a parallel implementation of
    {!Exec.Operators.scatter_runner}: partition subtasks fan out across
    the scheduler's worker pool as helper jobs, the submitting domain
    work-steals unclaimed subtasks (so saturation degrades to
    sequential execution, never deadlock), and the submitting query's
    deadline/cancellation abandon not-yet-started subtasks with
    {!Exec.Operators.Scatter_abandoned}. *)

val install : Scheduler.t -> unit
(** Point the executor's [scatter_runner] at the pool: each batch of
    subtasks runs there, outcomes returned in index order.  Process-wide:
    the last installed pool wins; after its shutdown the runner still
    completes every batch on the submitting domain. *)
