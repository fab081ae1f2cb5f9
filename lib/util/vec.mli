(** Growable arrays (OCaml 5.1 has no [Dynarray]); used as table storage by
    the relational trace store. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> int
(** Appends and returns the index of the new element. *)

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] when out of bounds. *)

val set : 'a t -> int -> 'a -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array
val exists : ('a -> bool) -> 'a t -> bool
val find_opt : ('a -> bool) -> 'a t -> 'a option
