(** The process address space: mapped module images and fast PC lookup.
    Mutable: {!add}/{!remove} support runtime loading (dlopen/dlclose). *)

open Dlink_isa

type t

val create : Image.t list -> t
(** Raises [Invalid_argument] if any two images overlap. *)

val add : t -> Image.t -> unit
(** Map one more image.  Raises [Invalid_argument] on an overlap or a
    duplicate id/name. *)

val remove : t -> int -> unit
(** Unmap the image with this id.  Raises [Invalid_argument] if absent. *)

val images : t -> Image.t array
(** In ascending base-address order. *)

val locate : t -> Addr.t -> Image.t
(** Image containing the address, or {!Image.none} when no module maps it
    (binary search with a one-entry memo for the common same-module case).
    Allocation-free: the interpreter fetches through it on every
    instruction. *)

val image_at : t -> Addr.t -> Image.t option
(** {!locate} as an option. *)

val image_by_id : t -> int -> Image.t option
val image_by_name : t -> string -> Image.t option
