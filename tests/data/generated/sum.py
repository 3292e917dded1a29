def run(values, draw, max_rounds, max_steps):
    count = len(values)
    i = steps = 0
    gaps = []
    close = gaps.append
    pending = []
    h3 = []
    c1 = unset
    def loop2():
        nonlocal i, steps, c1
        for _ in range(max_rounds):
            if (len(h3) == c1):
                break
            else:
                u0 = (c1 - len(h3))
                hash(u0)
                if i < count:
                    v = values[i]
                else:
                    v = draw(i, d4)
                steps += 2
                if pending:
                    close((*pending, ((), (u0,))))
                    pending.clear()
                else:
                    close((((), (u0,)),))
                if steps > max_steps: too_long(max_steps)
                h3.append(v)
                i += 1
        else:
            too_many_rounds(max_rounds)
    if i < count:
        v = values[i]
        if not d0.contains(v): raise InputRejectedError(i, v, d0)
    else:
        v = draw(i, d0)
    steps += 2 if pending else 1
    close(tuple(pending))
    pending.clear()
    if steps > max_steps: too_long(max_steps)
    c1 = v
    i += 1
    loop2()
    u0 = sum(h3)
    hash(u0)
    pending.append(((u0,),))
    close(tuple(pending))
    return gaps
