(** Experiment registry: every table and figure of the paper's evaluation,
    plus the ablation studies and baselines, addressable by id and sharing
    one lazily built {!Context}. [lockdoc repro] renders them in list
    order. *)

type experiment = {
  id : string;  (** "fig1", "tab5", "ablation-wor", … *)
  title : string;
  needs_context : bool;  (** false for fig1/tab1/tab2 (own pipelines) *)
  render : Context.t Lazy.t -> string;
}

val all : experiment list

val find : string -> experiment option

val ids : string list
