package main

import "flag"

// parseCommand splits an argument list into its subcommand and applies
// flags from either side of it: "experiments -scale 0.1 fig8" and
// "experiments fig8 -scale 0.1" both work, because the flag package
// stops at the first positional argument and whatever follows the
// subcommand is re-parsed. Returns def when no subcommand is present.
// Every subcommand used to inline this dance; keep it here, in one
// place.
func parseCommand(fs *flag.FlagSet, args []string, def string) (string, error) {
	if err := fs.Parse(args); err != nil {
		return "", err
	}
	if fs.NArg() == 0 {
		return def, nil
	}
	cmd := fs.Arg(0)
	if fs.NArg() > 1 {
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return "", err
		}
	}
	return cmd, nil
}
