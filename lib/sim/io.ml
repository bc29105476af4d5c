type event =
  | Input of { address : int; data : int }
  | Output of { address : int; data : int }

type handler = {
  input : address:int -> int;
  output : address:int -> data:int -> unit;
}

let console =
  let input ~address =
    match address with
    | 0 -> ( try Scanf.scanf "%c" Char.code with End_of_file -> 0)
    | 1 -> ( try Scanf.scanf " %d" (fun d -> d) with Scanf.Scan_failure _ | End_of_file -> 0)
    | _ -> (
        Printf.printf "Input from address %d: " address;
        try Scanf.scanf " %d" (fun d -> d)
        with Scanf.Scan_failure _ | End_of_file -> 0)
  in
  let output ~address ~data =
    match address with
    | 0 -> print_char (Char.chr (data land 255))
    | 1 -> Printf.printf "%d\n" data
    | _ -> Printf.printf "Output to address %d: %d\n" address data
  in
  { input; output }

let null = { input = (fun ~address:_ -> 0); output = (fun ~address:_ ~data:_ -> ()) }

let recording ?(feed = []) () =
  let events = ref [] in
  let pending = ref feed in
  let input ~address =
    let data =
      match !pending with
      | [] -> 0
      | d :: rest ->
          pending := rest;
          d
    in
    events := Input { address; data } :: !events;
    data
  in
  let output ~address ~data = events := Output { address; data } :: !events in
  ({ input; output }, fun () -> List.rev !events)

let event_to_string = function
  | Input { address; data } -> Printf.sprintf "input[%d] -> %d" address data
  | Output { address; data } -> Printf.sprintf "output[%d] <- %d" address data
