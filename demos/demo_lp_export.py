"""LP-format interop: write a formulation as LP text and read a solution
back into the model's variables.
"""

from gridcover import (
    GridSpec,
    build_milp_static,
    decode_static,
    parse_solution_values,
    solve_milp,
    write_lp_text,
)


def main():
    grid = GridSpec(3, 3)
    handle = build_milp_static(grid, n_static=1, r_s=1, c_o=1, boundary_weight=4)

    text = write_lp_text(handle.instance)
    with open("placement_3x3.lp", "w") as fh:
        fh.write(text)
    print("wrote placement_3x3.lp; first lines:\n")
    print("\n".join(text.splitlines()[:8]))

    # any solver that reads LP format can produce `name value` lines; here
    # the embedded solver plays that role
    result = solve_milp(handle.instance)
    names = handle.instance.variable_names()
    solution_lines = "\n".join(
        f"{names[vid]} {value:g}"
        for vid, value in enumerate(result.incumbent.tolist())
        if value > 0.5
    )
    print(f"\nsolver returned objective {result.objective:g}; nonzero values:")
    print(solution_lines)

    values = parse_solution_values(solution_lines, handle.instance)
    deployment = decode_static(handle, values)
    print(f"\ndecoded deployment: {[tuple(p) for p in deployment.positions]}")


if __name__ == "__main__":
    main()
