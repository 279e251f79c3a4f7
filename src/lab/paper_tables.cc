#include "lab/paper_tables.hh"

namespace msgsim::lab
{

std::vector<std::string>
costColumns(const std::string &label)
{
    return {label, "row", "src", "dst"};
}

std::vector<Row>
costRows(const std::string &label, const CostRowTotals &src,
         const CostRowTotals &dst)
{
    std::vector<Row> rows;
    std::uint64_t srcTotal = 0, dstTotal = 0;
    for (int r = 0; r < numCostRows; ++r) {
        const auto row = static_cast<CostRow>(r);
        const auto s = src[static_cast<std::size_t>(r)];
        const auto d = dst[static_cast<std::size_t>(r)];
        if (row == CostRow::Other && s == 0 && d == 0)
            continue;
        rows.push_back({T(label), T(toString(row)), paperCount(s),
                        paperCount(d)});
        srcTotal += s;
        dstTotal += d;
    }
    rows.push_back({T(label), T("Total"), I(srcTotal), I(dstTotal)});
    return rows;
}

std::vector<std::string>
featureColumns(const std::string &label)
{
    return {label, "feature", "src", "dst", "total"};
}

std::vector<Row>
featureRows(const std::string &label, const BreakdownCounter &bd)
{
    std::vector<Row> rows;
    for (int f = 0; f < numPaperFeatures; ++f) {
        const auto feat = static_cast<Feature>(f);
        const auto s = bd.src.featureTotal(feat);
        const auto d = bd.dst.featureTotal(feat);
        rows.push_back({T(label), T(toString(feat)), paperCount(s),
                        paperCount(d), paperCount(s + d)});
    }
    rows.push_back({T(label), T("Total"), I(bd.src.paperTotal()),
                    I(bd.dst.paperTotal()), I(bd.paperTotal())});
    return rows;
}

std::vector<std::string>
categoryColumns(const std::string &label)
{
    return {label,     "feature", "src reg", "src mem",
            "src dev", "dst reg", "dst mem", "dst dev"};
}

std::vector<Row>
categoryRows(const std::string &label, const BreakdownCounter &bd)
{
    static constexpr Category cats[] = {Category::Reg, Category::Mem,
                                        Category::Dev};
    std::vector<Row> rows;
    std::array<std::uint64_t, 6> total{};
    for (int f = 0; f < numPaperFeatures; ++f) {
        const auto feat = static_cast<Feature>(f);
        Row row{T(label), T(toString(feat))};
        std::size_t i = 0;
        for (const InstrCounter *c : {&bd.src, &bd.dst})
            for (const Category cat : cats) {
                const std::uint64_t v = c->category(feat, cat);
                row.push_back(paperCount(v));
                total[i++] += v;
            }
        rows.push_back(std::move(row));
    }
    Row last{T(label), T("Total")};
    for (const std::uint64_t v : total)
        last.push_back(I(v));
    rows.push_back(std::move(last));
    return rows;
}

std::vector<std::string>
cycleColumns(const std::string &label)
{
    return {label,      "model",     "base",  "buffer mgmt",
            "in-order", "fault-tol", "total", "overhead"};
}

Row
cycleRow(const std::string &label, const BreakdownCounter &bd,
         const CostModel &model)
{
    auto feat = [&](Feature f) {
        return model.cycles(bd.src, f) + model.cycles(bd.dst, f);
    };
    const double total = model.cycles(bd);
    const double base = feat(Feature::BaseCost);
    return {T(label),
            T(model.name),
            R(base),
            R(feat(Feature::BufferMgmt)),
            R(feat(Feature::InOrderDelivery)),
            R(feat(Feature::FaultTolerance)),
            R(total),
            R(total > 0 ? (total - base) / total : 0.0)};
}

} // namespace msgsim::lab
