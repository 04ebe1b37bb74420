#include "ml/linear_regression.h"

#include "ml/matrix.h"

namespace intellisphere::ml {

Result<LinearRegression> LinearRegression::Fit(const Dataset& data,
                                               double ridge) {
  ISPHERE_RETURN_NOT_OK(data.Validate());
  size_t d = data.num_features();
  if (d == 0) return Status::InvalidArgument("no features");
  if (data.size() < d + 1) {
    return Status::InvalidArgument("need at least num_features+1 samples");
  }
  // Normal equations over the design matrix [x | 1].
  size_t n = d + 1;
  Matrix ata(n, n);
  std::vector<double> atb(n, 0.0);
  for (size_t r = 0; r < data.size(); ++r) {
    std::vector<double> row = data.x[r];
    row.push_back(1.0);
    for (size_t i = 0; i < n; ++i) {
      atb[i] += row[i] * data.y[r];
      for (size_t j = 0; j < n; ++j) ata.At(i, j) += row[i] * row[j];
    }
  }
  for (size_t i = 0; i < d; ++i) ata.At(i, i) += ridge;
  ISPHERE_ASSIGN_OR_RETURN(std::vector<double> coef, ata.Solve(atb));
  LinearRegression lr;
  lr.weights_.assign(coef.begin(), coef.begin() + static_cast<long>(d));
  lr.intercept_ = coef[d];
  return lr;
}

Result<LinearRegression> LinearRegression::Fit1D(
    const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size()) {
    return Status::InvalidArgument("Fit1D size mismatch");
  }
  Dataset data;
  for (size_t i = 0; i < x.size(); ++i) data.Add({x[i]}, y[i]);
  return Fit(data);
}

Result<double> LinearRegression::Predict(const std::vector<double>& row) const {
  if (row.size() != weights_.size()) {
    return Status::InvalidArgument("predict width mismatch");
  }
  double s = intercept_;
  for (size_t i = 0; i < row.size(); ++i) s += weights_[i] * row[i];
  return s;
}

Result<double> LinearRegression::Predict1D(double x) const {
  // Predict's arithmetic without its one-element row vector: the sub-op
  // formulas call this per sub-op cost, on the cache-miss path.
  if (weights_.size() != 1) {
    return Status::InvalidArgument("predict width mismatch");
  }
  double s = intercept_;
  s += weights_[0] * x;
  return s;
}

void LinearRegression::Save(const std::string& prefix,
                            Properties* props) const {
  props->SetDoubleList(prefix + "weights", weights_);
  props->SetDouble(prefix + "intercept", intercept_);
}

Result<LinearRegression> LinearRegression::Load(const std::string& prefix,
                                                const Properties& props) {
  LinearRegression lr;
  ISPHERE_ASSIGN_OR_RETURN(lr.weights_,
                           props.GetDoubleList(prefix + "weights"));
  ISPHERE_ASSIGN_OR_RETURN(lr.intercept_,
                           props.GetDouble(prefix + "intercept"));
  return lr;
}

}  // namespace intellisphere::ml
