(** Memory-mapped I/O (§4.5).

    A memory whose operation value is 2 reads its result from the input
    stream; 3 sends its data to the output stream.  The address selects the
    transfer format: 0 = character, 1 = integer, anything else = integer
    tagged with the address. *)

type event =
  | Input of { address : int; data : int }
  | Output of { address : int; data : int }

type handler = {
  input : address:int -> int;
  output : address:int -> data:int -> unit;
}

val console : handler
(** The paper's [sinput]/[soutput] on stdin/stdout: address 0 transfers a
    character (code/char), address 1 an integer, other addresses an integer
    with an ["Input from address N:"] prompt or ["Output to address N: d"]
    line.  Characters and integers come from one buffered stdin, as with C's
    stdio: a character read after an integer sees the rest of its line. *)

val null : handler
(** Inputs return 0; outputs are discarded.  For benchmarks. *)

val recording : ?feed:int list -> unit -> handler * (unit -> event list)
(** A handler that records every transfer (returned in occurrence order by
    the second component) and serves inputs from [feed] (0 once exhausted).
    For tests. *)

val event_to_string : event -> string
