(** The cost model: a simple I/O + CPU formula family in the System-R
    tradition, parameterized so experiments can shift the I/O/CPU
    balance.  All costs are in abstract "page-fetch equivalents". *)

type params = {
  cpu_tuple : float;  (** processing one tuple *)
  cpu_compare : float;  (** one comparison during sort *)
  io_page : float;  (** reading one page *)
  index_probe : float;  (** descending a B+-tree *)
  hash_build_tuple : float;
}

val default_params : params

val seq_scan : params -> pages:float -> rows:float -> float

val index_scan : params -> pages:float -> rows:float -> match_rows:float ->
  float
(** Probe + matching fraction of the pages (clustered assumption) +
    CPU. *)

val index_only_scan :
  params -> entries_per_page:float -> match_rows:float -> float
(** Probe + leaf pages of narrow key entries + CPU; never touches the
    heap. *)

val hash_join :
  params -> build_rows:float -> probe_rows:float -> out_rows:float -> float
(** Hash the [build_rows] input, stream the [probe_rows] input through
    it. *)

val nested_loop_join :
  params -> left_rows:float -> right_rows:float -> out_rows:float -> float

val sort : params -> rows:float -> float
val group : params -> rows:float -> float
