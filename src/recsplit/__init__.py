"""recsplit: compile simple recursion schemes into a reversible producer and
a classical consumer that cooperate over blocking rendezvous channels.

The package root exports nothing: import from the submodules, listed with
their contents in the README's module table (Layout)."""
